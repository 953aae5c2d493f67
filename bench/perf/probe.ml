(* Readings of what the library already emits: every counter and every
   histogram's count and sum in the source and warehouse registries,
   plus the OCaml runtime's GC counters.  A run reads them before and
   after its measured phase and reports the difference; nothing inside
   lib/ is instrumented for the benchmark.

   Keys are "src.<metric>" for the source registry, "wh.<metric>" summed
   over every warehouse registry (one, or one per shard), and
   "wh<i>.<metric>" per shard.  A histogram [h] contributes "h.n" (its
   sample count) and "h.s" (its sum, seconds for timers). *)

module Metrics = Dw_util.Metrics

type t = (string, float) Hashtbl.t

let add (tbl : t) key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

let read_registry tbl prefixes m =
  let put key v = List.iter (fun p -> add tbl (p ^ key) v) prefixes in
  List.iter (fun (name, v) -> put name (float_of_int v)) (Metrics.snapshot m);
  List.iter
    (fun (name, (s : Metrics.histogram_summary)) ->
      put (name ^ ".n") (float_of_int s.count);
      put (name ^ ".s") s.sum)
    (Metrics.histograms m)

let read ~src ~whs : t =
  let tbl = Hashtbl.create 128 in
  read_registry tbl [ "src." ] src;
  List.iteri (fun i m -> read_registry tbl [ "wh."; Printf.sprintf "wh%d." i ] m) whs;
  let g = Gc.quick_stat () in
  add tbl "gc.minor_collections" (float_of_int g.Gc.minor_collections);
  add tbl "gc.major_collections" (float_of_int g.Gc.major_collections);
  add tbl "gc.minor_words" g.Gc.minor_words;
  add tbl "gc.promoted_words" g.Gc.promoted_words;
  tbl

let diff ~(before : t) ~(after : t) : t =
  let d = Hashtbl.create (Hashtbl.length after) in
  Hashtbl.iter
    (fun k v -> Hashtbl.replace d k (v -. Option.value ~default:0.0 (Hashtbl.find_opt before k)))
    after;
  d

let get (t : t) key = Option.value ~default:0.0 (Hashtbl.find_opt t key)

(* the per-round children of a traced refresh round: histogram sums only,
   so a traced round costs a handful of registry lookups *)
let children =
  [
    ("integrate", [ "warehouse.refresh" ]);
    ("queue", [ "queue.enqueue"; "queue.ack" ]);
    ("wal", [ "wal.append"; "wal.fsync" ]);
    ("pool_miss", [ "pool.miss" ]);
    ("lock_wait", [ "lock.wait" ]);
  ]

let child_sums whs =
  List.map
    (fun (child, hists) ->
      ( child,
        List.fold_left
          (fun acc m ->
            List.fold_left (fun acc h -> acc +. Metrics.observed_sum m h) acc hists)
          0.0 whs ))
    children
