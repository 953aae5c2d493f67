module Metrics = Dw_util.Metrics
module Prng = Dw_util.Prng

(* deterministic fault injection: a plan is consulted on every write and
   fsync (events).  All decisions come from the seeded Prng, so two runs
   over the same operation sequence inject identical faults. *)
module Fault = struct
  exception Crash of { op : string; index : int }
  exception Transient of string

  type window = { from_event : int; until_event : int }  (* [from, until) *)

  type sustained =
    | Error_rate of { window : window; write_p : float; fsync_p : float }
    | Latency of { window : window; delay_s : float }
    | Crash_flap of { window : window; period_on : int; period_off : int }

  type t = {
    prng : Prng.t;
    mutable fail_stop_after : int;  (* crash on event #n (0-based); -1 = never *)
    mutable tear_on_crash : bool;   (* a crashing write persists a random prefix *)
    mutable write_fail_p : float;   (* transient write failure (nothing persisted) *)
    mutable fsync_fail_p : float;   (* transient fsync failure *)
    sustained : sustained list;     (* event-windowed plans; survive {!reset_crash} *)
    mutable events : int;           (* write/fsync events seen so far *)
    mutable crashed : bool;
  }

  let check_window = function
    | { from_event; until_event } when from_event < 0 || until_event < from_event ->
      invalid_arg "Vfs.Fault: bad sustained window"
    | _ -> ()

  let check_sustained = function
    | Error_rate { window; write_p; fsync_p } ->
      check_window window;
      if write_p < 0.0 || write_p > 1.0 || fsync_p < 0.0 || fsync_p > 1.0 then
        invalid_arg "Vfs.Fault: error rate outside [0, 1]"
    | Latency { window; delay_s } ->
      check_window window;
      if delay_s < 0.0 then invalid_arg "Vfs.Fault: negative latency"
    | Crash_flap { window; period_on; period_off } ->
      check_window window;
      if period_on < 1 || period_off < 0 then invalid_arg "Vfs.Fault: bad flap period"

  let make ?(fail_stop_after = -1) ?(tear_on_crash = true) ?(write_fail_p = 0.0)
      ?(fsync_fail_p = 0.0) ?(sustained = []) ~seed () =
    List.iter check_sustained sustained;
    {
      prng = Prng.create ~seed;
      fail_stop_after;
      tear_on_crash;
      write_fail_p;
      fsync_fail_p;
      sustained;
      events = 0;
      crashed = false;
    }

  let events t = t.events

  let in_window w idx = idx >= w.from_event && idx < w.until_event

  (* is event [idx] inside the ON phase of an armed crash-flap window? *)
  let flap_crashing t idx =
    List.exists
      (function
        | Crash_flap { window; period_on; period_off } ->
          in_window window idx
          && (idx - window.from_event) mod (period_on + period_off) < period_on
        | Error_rate _ | Latency _ -> false)
      t.sustained

  (* effective transient (write, fsync) probabilities at event [idx]:
     the base rates raised by whichever error windows are active *)
  let rates t idx =
    List.fold_left
      (fun (wp, fp) s ->
        match s with
        | Error_rate { window; write_p; fsync_p } when in_window window idx ->
          (Float.max wp write_p, Float.max fp fsync_p)
        | Error_rate _ | Latency _ | Crash_flap _ -> (wp, fp))
      (t.write_fail_p, t.fsync_fail_p) t.sustained

  (* summed extra delay of the latency windows active at event [idx] *)
  let extra_delay t idx =
    List.fold_left
      (fun acc s ->
        match s with
        | Latency { window; delay_s } when in_window window idx -> acc +. delay_s
        | Latency _ | Error_rate _ | Crash_flap _ -> acc)
      0.0 t.sustained

  (* "the process restarted, the device did not get replaced": clear the
     dead flag and the one-shot fail-stop, keep the sustained schedule
     and the event counter so a flap keeps flapping across restarts *)
  let reset_crash t =
    t.crashed <- false;
    t.fail_stop_after <- -1
end

(* growable byte store for the in-memory backend: random-access reads and
   writes without copying the whole file.  Callers hold the file's I/O
   lock ({!file}'s [io]) over every read, write and truncate, so a read
   never meets a growth realloc or a write of the same range half done. *)
module Mem_file = struct
  type t = { mutable data : Bytes.t; mutable len : int }

  let create () = { data = Bytes.create 4096; len = 0 }

  let ensure t capacity =
    if Bytes.length t.data < capacity then begin
      let cap = ref (max 4096 (Bytes.length t.data)) in
      while !cap < capacity do
        cap := !cap * 2
      done;
      let data = Bytes.create !cap in
      Bytes.blit t.data 0 data 0 t.len;
      t.data <- data
    end

  let read t ~off buf len = Bytes.blit t.data off buf 0 len

  let write t ~off src len =
    ensure t (off + len);
    Bytes.blit src 0 t.data off len;
    if off + len > t.len then t.len <- off + len

  let truncate t size = t.len <- size
end

type backend =
  | Mem of (string, Mem_file.t) Hashtbl.t
  | Disk of string  (* directory *)

(* the per-I/O metrics, resolved once per Vfs instead of by name on
   every read, write and fsync *)
type handles = {
  reads : Metrics.counter;
  read_bytes : Metrics.counter;
  writes : Metrics.counter;
  write_bytes : Metrics.counter;
  fsyncs : Metrics.counter;
  read_hist : Metrics.hist;
  write_hist : Metrics.hist;
  fsync_hist : Metrics.hist;
}

type t = {
  backend : backend;
  metrics : Metrics.t;
  h : handles;
  open_files : (string, int) Hashtbl.t;  (* name -> refcount *)
  (* name -> stable id and I/O lock, assigned on first open *)
  ids : (string, int * Mutex.t) Hashtbl.t;
  (* bumped after every [create]/[delete] changes the Mem table: a file
     handle's cached [Mem_file] is good while this has not moved *)
  generation : int Atomic.t;
  op_delay : float;  (* simulated per-operation latency, seconds *)
  mutable fault : Fault.t option;
}

(* a file handle's cached byte store, swapped whole *)
type cached = { gen : int; store : Mem_file.t }

(* [io] is the name's I/O lock, shared by every handle on the name: a
   device read, write or truncate runs under it on both backends, so
   two domains never interleave a Disk handle's seek and transfer, and
   a read outside the pool's stripe locks never sees a write half done *)
type file = {
  vfs : t;
  fname : string;
  fid : int;
  io : Mutex.t;
  mutable cached : cached option;  (* Mem backend only *)
  mutable fd : Unix.file_descr option;  (* Disk backend only *)
  mutable closed : bool;
}

let make backend metrics op_delay =
  let metrics = match metrics with Some m -> m | None -> Metrics.create () in
  {
    backend;
    metrics;
    h =
      {
        reads = Metrics.counter metrics "vfs.reads";
        read_bytes = Metrics.counter metrics "vfs.read_bytes";
        writes = Metrics.counter metrics "vfs.writes";
        write_bytes = Metrics.counter metrics "vfs.write_bytes";
        fsyncs = Metrics.counter metrics "vfs.fsyncs";
        read_hist = Metrics.hist metrics "vfs.read";
        write_hist = Metrics.hist metrics "vfs.write";
        fsync_hist = Metrics.hist metrics "vfs.fsync";
      };
    open_files = Hashtbl.create 16;
    ids = Hashtbl.create 16;
    generation = Atomic.make 0;
    op_delay;
    fault = None;
  }

let in_memory ?metrics ?(op_delay = 0.0) () = make (Mem (Hashtbl.create 16)) metrics op_delay

let on_disk ?metrics dir =
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  make (Disk dir) metrics 0.0

let metrics t = t.metrics

let set_fault t plan = t.fault <- plan
let fault t = t.fault

let crash_reset t =
  (* "the process died": no file handle survives, faults are disarmed so
     recovery code runs against the surviving bytes undisturbed *)
  Hashtbl.reset t.open_files;
  t.fault <- None

let revive t =
  (* restart the process but keep the device on its fault schedule: the
     sustained plan and event counter survive, so a shard revived during
     a flap's ON phase crashes again on its next durability event *)
  Hashtbl.reset t.open_files;
  match t.fault with Some p -> Fault.reset_crash p | None -> ()

let check_name name =
  if name = "" || String.contains name '/' then invalid_arg ("Vfs: bad file name " ^ name)

let track_open t name =
  let n = match Hashtbl.find_opt t.open_files name with Some n -> n | None -> 0 in
  Hashtbl.replace t.open_files name (n + 1)

let track_close t name =
  match Hashtbl.find_opt t.open_files name with
  | Some 1 -> Hashtbl.remove t.open_files name
  | Some n -> Hashtbl.replace t.open_files name (n - 1)
  | None -> ()

let path dir name = Filename.concat dir name

let check_dead t op =
  match t.fault with
  | Some p when p.Fault.crashed ->
    raise (Fault.Crash { op; index = p.Fault.fail_stop_after })
  | Some _ | None -> ()

let file_id t name =
  match Hashtbl.find_opt t.ids name with
  | Some ident -> ident
  | None ->
    let ident = (Hashtbl.length t.ids, Mutex.create ()) in
    Hashtbl.add t.ids name ident;
    ident

let open_handle t name =
  track_open t name;
  let fd =
    match t.backend with
    | Mem _ -> None
    | Disk dir -> Some (Unix.openfile (path dir name) [ Unix.O_RDWR ] 0o644)
  in
  let fid, io = file_id t name in
  { vfs = t; fname = name; fid; io; cached = None; fd; closed = false }

let create t name =
  check_name name;
  check_dead t "create";
  (match t.backend with
   | Mem files ->
     Hashtbl.replace files name (Mem_file.create ());
     Atomic.incr t.generation
   | Disk dir ->
     let fd = Unix.openfile (path dir name) [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
     Unix.close fd);
  open_handle t name

let exists t name =
  check_name name;
  match t.backend with
  | Mem files -> Hashtbl.mem files name
  | Disk dir -> Sys.file_exists (path dir name)

let open_existing t name =
  check_name name;
  if not (exists t name) then raise Not_found;
  open_handle t name

let open_or_create t name = if exists t name then open_existing t name else create t name

let delete t name =
  check_name name;
  check_dead t "delete";
  if Hashtbl.mem t.open_files name then invalid_arg ("Vfs.delete: file is open: " ^ name);
  match t.backend with
  | Mem files ->
    Hashtbl.remove files name;
    Atomic.incr t.generation
  | Disk dir -> if Sys.file_exists (path dir name) then Sys.remove (path dir name)

let list_files t =
  match t.backend with
  | Mem files -> Hashtbl.fold (fun k _ acc -> k :: acc) files [] |> List.sort String.compare
  | Disk dir -> Sys.readdir dir |> Array.to_list |> List.sort String.compare

let name f = f.fname
let id f = f.fid

(* the file's byte store: the cached one while no create/delete has
   moved the generation, else looked up by name again.  The generation
   is read before the lookup, so a create racing the lookup can only
   leave an entry that the next call re-validates. *)
let mem_file f =
  match f.vfs.backend with
  | Mem files ->
    let gen = Atomic.get f.vfs.generation in
    (match f.cached with
     | Some c when c.gen = gen -> c.store
     | Some _ | None ->
       (match Hashtbl.find_opt files f.fname with
        | Some store ->
          f.cached <- Some { gen; store };
          store
        | None -> raise Not_found))
  | Disk _ -> assert false

let size f =
  if f.closed then invalid_arg "Vfs.size: closed file";
  match f.vfs.backend with
  | Mem _ -> (mem_file f).Mem_file.len
  | Disk _ ->
    (match f.fd with
     | Some fd -> (Unix.fstat fd).Unix.st_size
     | None -> assert false)

let simulate_latency f = if f.vfs.op_delay > 0.0 then Unix.sleepf f.vfs.op_delay

(* fault-injection decision points.  A crashed plan makes every subsequent
   operation raise again: the "process" is dead until {!crash_reset}. *)

(* write/fsync are the durability events the crash-point explorer indexes;
   [kind] is [`Write len] or [`Fsync] *)
let fault_event t op kind =
  match t.fault with
  | None -> `Proceed
  | Some p ->
    check_dead t op;
    let idx = p.Fault.events in
    p.Fault.events <- idx + 1;
    if idx = p.Fault.fail_stop_after || Fault.flap_crashing p idx then begin
      p.Fault.crashed <- true;
      Metrics.incr t.metrics "fault.crashes";
      match kind with
      | `Write len when p.Fault.tear_on_crash && len > 0 ->
        Metrics.incr t.metrics "fault.torn_writes";
        (* strictly partial: [0, len) bytes survive *)
        `Tear (Prng.int p.Fault.prng len, idx)
      | `Write _ | `Fsync -> raise (Fault.Crash { op; index = idx })
    end
    else begin
      let write_p, fsync_p = Fault.rates p idx in
      let transient_p, counter =
        match kind with
        | `Write _ -> (write_p, "fault.transient_writes")
        | `Fsync -> (fsync_p, "fault.transient_fsyncs")
      in
      if transient_p > 0.0 && Prng.float p.Fault.prng 1.0 < transient_p then begin
        Metrics.incr t.metrics counter;
        raise (Fault.Transient op)
      end;
      (match Fault.extra_delay p idx with
       | d when d > 0.0 ->
         Metrics.incr t.metrics "fault.latency_spikes";
         Unix.sleepf d
       | _ -> ());
      `Proceed
    end

let count_read f len =
  simulate_latency f;
  Metrics.bump f.vfs.h.reads 1;
  Metrics.bump f.vfs.h.read_bytes len

let count_write f len =
  simulate_latency f;
  Metrics.bump f.vfs.h.writes 1;
  Metrics.bump f.vfs.h.write_bytes len

(* Per-I/O timing: the form of [Metrics.time] the hot paths use, with
   two clock reads and no closure.  A raising operation still records
   its sample before the exception goes on. *)
let since vfs started = Metrics.now vfs.metrics -. started

let record_raise vfs h started e =
  let bt = Printexc.get_raw_backtrace () in
  Metrics.record h (since vfs started);
  Printexc.raise_with_backtrace e bt

(* the transfers run under the file's I/O lock; [Unix] calls release
   the runtime lock, so a Disk seek would otherwise race another
   domain's on the shared descriptor *)
let read_bytes f ~off buf len =
  count_read f len;
  Mutex.protect f.io (fun () ->
      match f.vfs.backend with
      | Mem _ -> Mem_file.read (mem_file f) ~off buf len
      | Disk _ ->
        let fd = Option.get f.fd in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let rec go pos remaining =
          if remaining > 0 then begin
            let n = Unix.read fd buf pos remaining in
            if n = 0 then invalid_arg "Vfs.read_at: unexpected EOF";
            go (pos + n) (remaining - n)
          end
        in
        go 0 len)

let check_read f ~off ~len =
  if f.closed then invalid_arg "Vfs.read_at: closed file";
  if off < 0 || len < 0 || off + len > size f then
    invalid_arg
      (Printf.sprintf "Vfs.read_at %s: range [%d, %d) beyond size %d" f.fname off (off + len)
         (size f));
  check_dead f.vfs "read"

let timed_read f ~off buf len =
  let started = Metrics.now f.vfs.metrics in
  match read_bytes f ~off buf len with
  | () -> Metrics.record f.vfs.h.read_hist (since f.vfs started)
  | exception e -> record_raise f.vfs f.vfs.h.read_hist started e

let read_into f ~off buf =
  let len = Bytes.length buf in
  check_read f ~off ~len;
  timed_read f ~off buf len

let read_at f ~off ~len =
  check_read f ~off ~len;
  let buf = Bytes.create len in
  timed_read f ~off buf len;
  buf

(* the first [len] bytes of [data] *)
let write_bytes f ~off data len =
  count_write f len;
  Mutex.protect f.io (fun () ->
      match f.vfs.backend with
      | Mem _ -> Mem_file.write (mem_file f) ~off data len
      | Disk _ ->
        let fd = Option.get f.fd in
        ignore (Unix.lseek fd off Unix.SEEK_SET);
        let rec go pos remaining =
          if remaining > 0 then begin
            let n = Unix.write fd data pos remaining in
            go (pos + n) (remaining - n)
          end
        in
        go 0 len)

(* the write itself, or the torn prefix of a crashing one *)
let faulted_write f ~off data len =
  match fault_event f.vfs "write" (`Write len) with
  | `Proceed -> write_bytes f ~off data len
  | `Tear (keep, index) ->
    if keep > 0 then write_bytes f ~off data keep;
    raise (Fault.Crash { op = "write"; index })

(* one write's duration into [vfs.write], and into [also] when given *)
let record_write f also d =
  Metrics.record f.vfs.h.write_hist d;
  match also with Some h -> Metrics.record h d | None -> ()

let write_timed f ~off data len also =
  if f.closed then invalid_arg "Vfs.write_at: closed file";
  if len < 0 || len > Bytes.length data then invalid_arg "Vfs.append: bad length";
  let sz = size f in
  if off < 0 || off > sz then
    invalid_arg (Printf.sprintf "Vfs.write_at %s: offset %d beyond size %d" f.fname off sz);
  let started = Metrics.now f.vfs.metrics in
  match faulted_write f ~off data len with
  | () -> record_write f also (since f.vfs started)
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    record_write f also (since f.vfs started);
    Printexc.raise_with_backtrace e bt

let write_at f ~off data = write_timed f ~off data (Bytes.length data) None

let append ?hist ?len f data =
  let off = size f in
  write_timed f ~off data (Option.value len ~default:(Bytes.length data)) hist;
  off

let sync f =
  (match fault_event f.vfs "fsync" `Fsync with
   | `Proceed -> ()
   | `Tear _ -> assert false (* fsync never tears *));
  simulate_latency f;
  Metrics.bump f.vfs.h.fsyncs 1;
  match f.vfs.backend with
  | Mem _ -> ()
  | Disk _ -> Unix.fsync (Option.get f.fd)

let fsync f =
  if f.closed then invalid_arg "Vfs.fsync: closed file";
  let started = Metrics.now f.vfs.metrics in
  match sync f with
  | () -> Metrics.record f.vfs.h.fsync_hist (since f.vfs started)
  | exception e -> record_raise f.vfs f.vfs.h.fsync_hist started e

let close f =
  if not f.closed then begin
    f.closed <- true;
    track_close f.vfs f.fname;
    match f.fd with Some fd -> Unix.close fd | None -> ()
  end

let truncate f new_size =
  if f.closed then invalid_arg "Vfs.truncate: closed file";
  check_dead f.vfs "truncate";
  let sz = size f in
  if new_size < 0 || new_size > sz then invalid_arg "Vfs.truncate: bad size";
  Mutex.protect f.io (fun () ->
      match f.vfs.backend with
      | Mem _ -> Mem_file.truncate (mem_file f) new_size
      | Disk _ -> Unix.ftruncate (Option.get f.fd) new_size)
