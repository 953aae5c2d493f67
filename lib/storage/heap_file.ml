module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Codec = Dw_relation.Codec

type rid = { page : int; slot : int }

let rid_compare a b =
  let c = Int.compare a.page b.page in
  if c <> 0 then c else Int.compare a.slot b.slot

let rid_to_string r = Printf.sprintf "(%d,%d)" r.page r.slot

type t = {
  pool : Buffer_pool.t;
  file : Vfs.file;
  schema : Schema.t;
  width : int;
  mutable free_pages : int list;  (* pages known to have a free slot, tried head first *)
  free_set : (int, unit) Hashtbl.t;  (* the members of [free_pages] *)
}

let create pool file schema =
  { pool; file; schema; width = Schema.record_size schema; free_pages = [];
    free_set = Hashtbl.create 16 }

(* [free_pages] holds no page twice, so [free_set] mirrors it exactly *)
let push_free t pno =
  if not (Hashtbl.mem t.free_set pno) then begin
    Hashtbl.add t.free_set pno ();
    t.free_pages <- pno :: t.free_pages
  end

let pop_free t =
  match t.free_pages with
  | [] -> ()
  | pno :: rest ->
    Hashtbl.remove t.free_set pno;
    t.free_pages <- rest

let attach pool file schema =
  let t = create pool file schema in
  (* rebuild the free-page hint list *)
  let pages = Buffer_pool.page_count pool file in
  for pno = pages - 1 downto 0 do
    let free =
      Buffer_pool.with_page pool file pno ~dirty:false (fun page ->
          Page.used_count page < Page.capacity page)
    in
    if free then push_free t pno
  done;
  t

let file t = t.file
let page_count t = Buffer_pool.page_count t.pool t.file

(* one frame visit per insert: place the record and see whether the
   page is now full *)
let insert_encoded t record =
  let place pno =
    Buffer_pool.with_page t.pool t.file pno ~dirty:true (fun page ->
        match Page.insert page record with
        | Some slot -> Some (slot, Page.used_count page = Page.capacity page)
        | None -> None)
  in
  let rec try_free () =
    match t.free_pages with
    | [] -> (
        let pno =
          Buffer_pool.append_page t.pool t.file (fun page -> Page.init page ~record_width:t.width)
        in
        match place pno with
        | Some (slot, full) ->
          if not full then push_free t pno;
          { page = pno; slot }
        | None -> assert false)
    | pno :: _ -> (
        match place pno with
        | Some (slot, full) ->
          if full then pop_free t;
          { page = pno; slot }
        | None ->
          pop_free t;
          try_free ())
  in
  try_free ()

(* [Codec.encode_binary] validates the tuple *)
let insert t tuple = insert_encoded t (Codec.encode_binary t.schema tuple)

let insert_raw t record =
  if Bytes.length record <> t.width then
    invalid_arg
      (Printf.sprintf "Heap_file.insert_raw: record is %d bytes, expected %d"
         (Bytes.length record) t.width);
  insert_encoded t record

let check_rid t rid =
  if rid.page < 0 || rid.page >= page_count t then
    invalid_arg ("Heap_file: bad rid " ^ rid_to_string rid)

let get t rid =
  check_rid t rid;
  Buffer_pool.with_page t.pool t.file rid.page ~dirty:false (fun page ->
      let record = Page.read_slot page rid.slot in
      Codec.decode_binary t.schema record 0)

let update t rid record =
  check_rid t rid;
  Buffer_pool.with_page t.pool t.file rid.page ~dirty:true (fun page ->
      (* a free slot is left to [Page.write_slot], which rejects it *)
      let before =
        if Page.is_used page rid.slot then Page.read_slot page rid.slot else Bytes.empty
      in
      Page.write_slot page rid.slot record;
      before)

let delete t rid =
  check_rid t rid;
  let record =
    Buffer_pool.with_page t.pool t.file rid.page ~dirty:true (fun page ->
        (* a free slot is left to [Page.delete], which rejects it *)
        let record =
          if Page.is_used page rid.slot then Page.read_slot page rid.slot else Bytes.empty
        in
        Page.delete page rid.slot;
        record)
  in
  push_free t rid.page;
  record

(* the run of [rows] on the first one's page under its latch, then
   [freed] for each row of the run it freed, then the next run; a raise
   inside the run reaches the caller after the rows freed before it are
   seen *)
let rec free_rows t rows freed =
  match rows with
  | [] -> ()
  | (first, _) :: _ ->
    let n = ref 0 in
    let rec free page = function
      | (rid, _) :: more when rid.page = first.page ->
        Page.delete page rid.slot;
        incr n;
        free page more
      | _ -> ()
    in
    let outcome =
      match Buffer_pool.with_page t.pool t.file first.page ~dirty:true (fun page -> free page rows) with
      | () -> None
      | exception e -> Some e
    in
    if !n > 0 then push_free t first.page;
    let rec each n = function
      | (rid, x) :: more when n > 0 ->
        freed rid x;
        each (n - 1) more
      | rest -> ( match outcome with None -> free_rows t rest freed | Some e -> raise e)
    in
    each !n rows

let iter_pages t ~from_page ~to_page f =
  for pno = max 0 from_page to min (to_page - 1) (page_count t - 1) do
    (* copy out the used slots, then decode outside the page callback so
       [f] may itself touch the pool *)
    let records = ref [] in
    Buffer_pool.with_page t.pool t.file pno ~dirty:false (fun page ->
        Page.iter_used page (fun slot record -> records := (slot, record) :: !records));
    List.iter
      (fun (slot, record) -> f { page = pno; slot } (Codec.decode_binary t.schema record 0))
      (List.rev !records)
  done

let copy_page t pno buf = Buffer_pool.copy_page t.pool t.file pno buf

let count t =
  let n = ref 0 in
  iter_pages t ~from_page:0 ~to_page:max_int (fun _ _ -> incr n);
  !n
let flush t = Buffer_pool.flush_file t.pool t.file

let ensure_page t pno =
  while page_count t <= pno do
    let new_pno =
      Buffer_pool.append_page t.pool t.file (fun page -> Page.init page ~record_width:t.width)
    in
    push_free t new_pno
  done

let force_at t rid contents =
  (match contents with
   | Some record when Bytes.length record <> t.width ->
     invalid_arg "Heap_file.force_at: width mismatch"
   | Some _ | None -> ());
  (match contents with Some _ -> ensure_page t rid.page | None -> ());
  if rid.page < page_count t then
    Buffer_pool.with_page t.pool t.file rid.page ~dirty:true (fun page ->
        (* a crash can leave a page image that was never format-written
           back (all zeros) or whose header was torn: reformat it — any
           slot that should hold data is re-forced from the log *)
        if Page.record_width page <> t.width then Page.init page ~record_width:t.width;
        let used = Page.is_used page rid.slot in
        match contents, used with
        | Some record, true -> Page.write_slot page rid.slot record
        | Some record, false ->
          Page.force_use page rid.slot;
          Page.write_slot page rid.slot record
        | None, true -> Page.delete page rid.slot
        | None, false -> ())

let exists_at t rid =
  if rid.page < 0 || rid.page >= page_count t then false
  else Buffer_pool.with_page t.pool t.file rid.page ~dirty:false (fun page ->
      rid.slot >= 0 && rid.slot < Page.capacity page && Page.is_used page rid.slot)

let get_opt t rid =
  if rid.page < 0 || rid.page >= page_count t then None
  else
    let record =
      Buffer_pool.with_page t.pool t.file rid.page ~dirty:false (fun page ->
          if rid.slot >= 0 && rid.slot < Page.capacity page && Page.is_used page rid.slot then
            Some (Page.read_slot page rid.slot)
          else None)
    in
    Option.map (fun r -> Codec.decode_binary t.schema r 0) record
