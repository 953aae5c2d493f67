(* Machine-speed probe.

   On a host whose CPUs are shared with other tenants (the 2-vCPU VM the
   reference numbers in README.md come from), the same fixed computation
   runs up to ~1.8x slower for a fraction of a second to minutes at a
   time, in CPU time as well as wall time.  Raw times of two runs of one
   commit then differ by more than the benchmark's bounds whenever the
   host load changed between them.

   The probe times a fixed reference kernel (pure OCaml allocation,
   hashing, sorting and buffer work; no code from lib/, so no change
   under test can speed it up) next to every measured sample, and the
   runner scales each sample by [nominal / probe]: a speed-normalised
   time is the time the sample would have taken on a host running the
   kernel in [nominal] seconds.  The median scale factor of a run is
   reported as machine.speed_factor. *)

let kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to 399 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let s = ref 0 in
  for i = 0 to 399 do
    s := !s + Option.value ~default:0 (Hashtbl.find_opt h (string_of_int (i * 13)))
  done;
  let l = List.sort compare (List.init 400 (fun i -> i * 7919 mod 2003)) in
  let b = Buffer.create 64 in
  List.iter (fun x -> Buffer.add_string b (string_of_int x)) l;
  !s + Buffer.length b

(* the kernel's duration at reference speed, seconds: roughly its time
   on the reference host when unloaded, so normalised times read close to
   raw ones there *)
let nominal = 0.00015

let time_kernel () =
  let a = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (kernel ()) : int);
  Unix.gettimeofday () -. a

(* seconds one kernel run takes now: the fastest of three runs during
   which no minor collection happened (of ten tries at most; the fastest
   of all if none was clean).  A minor collection stops every domain, so
   without the filter an allocating analyst domain could slow the probe
   and have its interference with the transactions divided out; and a
   probe that a collection or a descheduling interrupts does not read as
   a slow host. *)
let probe () =
  let minor () = (Gc.quick_stat ()).Gc.minor_collections in
  let clean = ref [] and fastest = ref infinity and tries = ref 0 in
  while List.length !clean < 3 && !tries < 10 do
    incr tries;
    let c = minor () in
    let t = time_kernel () in
    fastest := Float.min !fastest t;
    if minor () = c then clean := t :: !clean
  done;
  if !clean = [] then !fastest else List.fold_left Float.min infinity !clean

(* the scale factor for a sample taken between two probes *)
let scale p0 p1 = nominal /. ((p0 +. p1) /. 2.0)
