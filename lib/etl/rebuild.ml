module Db = Dw_engine.Db
module Op_delta = Dw_core.Op_delta
module Partition = Dw_warehouse.Partition
module Partitioned = Dw_warehouse.Partitioned
module Warehouse = Dw_warehouse.Warehouse
module Pq = Dw_transport.Persistent_queue

type outcome = {
  progress : Bootstrap.progress;
  watermark : int;
}

(* slice one delta transaction down to the ops the shard owns.  Stage
   does the routing (fact inserts decomposed row-wise, confined
   updates/deletes to their one partition, everything else broadcast);
   a transaction contributing nothing still comes back with its txn_id,
   so the bootstrap's exactly-once mark advances over it. *)
let restrict_to ~spec ~shard od =
  let buckets, (_ : Stage.stats) = Stage.split ~spec [ od ] in
  match buckets.(shard) with
  | [ sliced ] -> sliced
  | [] -> { od with Op_delta.ops = [] }
  | _ :: _ :: _ -> assert false

let owns ~spec ~shard k = Partition.route_key spec k = shard

(* run the slice bootstrap against the (fresh or re-adopted) shard and
   re-admit it into the fleet at its applied-through source txn *)
let drive ?config ?hook ~owner ~source ~capture ~fleet ~shard wh =
  let spec = Partitioned.spec fleet in
  let table = Partition.table spec in
  let vfs = (Partitioned.vfss fleet).(shard) in
  let queue = Pq.open_ vfs ~name:"rebuild.q" in
  match
    Bootstrap.start ?config ?hook
      ~restrict:(restrict_to ~spec ~shard)
      ~owns:(owns ~spec ~shard)
      ~owner ~source ~capture ~table ~queue ~warehouse:wh ()
  with
  | Error e -> Error e
  | Ok b -> (
    match Bootstrap.run b with
    | Error e -> Error e
    | Ok progress ->
      let wm_txn =
        match Warehouse.bootstrap wh table with
        | Some row -> row.Warehouse.last_txn
        | None -> 0
      in
      Partitioned.readmit fleet shard ~watermark:wm_txn;
      Ok { progress; watermark = wm_txn })

let rebuild_shard ?config ?hook ~owner ~source ~capture ~fleet ~shard () =
  let wh = Partitioned.begin_rebuild fleet shard in
  drive ?config ?hook ~owner ~source ~capture ~fleet ~shard wh

let resume_shard ?config ?hook ~owner ~source ~capture ~fleet ~shard () =
  Partitioned.reattach_rebuilding fleet shard;
  let wh = Partitioned.shard fleet shard in
  drive ?config ?hook ~owner ~source ~capture ~fleet ~shard wh
