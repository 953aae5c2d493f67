(* The engine's per-row write path against references kept here: the
   byte-wise heap-page bitmap scan against a bit-at-a-time loop, compiled
   expressions against a tree-walking interpreter, heap rids against a
   model of the free-page policy, and the compiled UPDATE ... SET. *)

module Vfs = Dw_storage.Vfs
module Page = Dw_storage.Page
module Buffer_pool = Dw_storage.Buffer_pool
module Heap_file = Dw_storage.Heap_file
module Value = Dw_relation.Value
module Schema = Dw_relation.Schema
module Tuple = Dw_relation.Tuple
module Expr = Dw_relation.Expr
module Db = Dw_engine.Db

let test name f = Alcotest.test_case name `Quick f

(* ---------- page bitmap: byte-wise scan vs bit loop ---------- *)

(* the reference: one slot per step, through [Page.is_used] *)
let ref_used_count page =
  let n = ref 0 in
  for slot = 0 to Page.capacity page - 1 do
    if Page.is_used page slot then incr n
  done;
  !n

let ref_find_free page =
  let cap = Page.capacity page in
  let rec go slot =
    if slot >= cap then None else if not (Page.is_used page slot) then Some slot else go (slot + 1)
  in
  go 0

(* a record width, a fill density in percent, a seed for which slots are
   used, and whether to set the bitmap's bits past capacity *)
let gen_bitmap =
  QCheck2.Gen.(
    quad (int_range 1 700) (oneof [ pure 0; pure 100; int_range 0 100 ]) (int_range 0 1_000_000)
      bool)

let prop_bitmap_scan =
  QCheck2.Test.make ~name:"byte-wise free-slot scan and used_count match the bit loop" ~count:500
    gen_bitmap (fun (width, density, seed, stray) ->
      let page = Page.alloc () in
      Page.init page ~record_width:width;
      let cap = Page.capacity page in
      let rng = Dw_util.Prng.create ~seed in
      for slot = 0 to cap - 1 do
        if Dw_util.Prng.int rng 100 < density then Page.force_use page slot
      done;
      (* bits past capacity are never set by Page; both sides ignore them *)
      (if stray && cap mod 8 <> 0 then
         let last = 4 + ((cap - 1) / 8) in
         Bytes.set page last
           (Char.chr (Char.code (Bytes.get page last) lor (0xff lsl (cap mod 8) land 0xff))));
      (* [Page.insert] takes the slot the free-slot scan finds *)
      let count_ok = Page.used_count page = ref_used_count page in
      let want = ref_find_free page in
      count_ok
      && Page.insert page (Bytes.make width 'r') = want
      && Page.used_count page = ref_used_count page)

(* ---------- Expr.compile vs the tree-walking interpreter ---------- *)

(* the evaluator [Expr] had before expressions were compiled *)
let ref_bad_bool v =
  invalid_arg (Printf.sprintf "Expr.eval: expected boolean, got %s" (Value.to_string v))

let ref_apply_binop op a b =
  match op with
  | Expr.Add -> Value.add a b
  | Expr.Sub -> Value.sub a b
  | Expr.Mul -> Value.mul a b
  | Expr.Div -> Value.div a b

let ref_apply_cmp op a b =
  if Value.is_null a || Value.is_null b then Value.Bool false
  else
    let c = Value.compare a b in
    Value.Bool
      (match op with
       | Expr.Eq -> c = 0
       | Expr.Neq -> c <> 0
       | Expr.Lt -> c < 0
       | Expr.Le -> c <= 0
       | Expr.Gt -> c > 0
       | Expr.Ge -> c >= 0)

let rec ref_eval schema tuple expr =
  match expr with
  | Expr.Col name -> tuple.(Schema.index_of schema name)
  | Expr.Lit v -> v
  | Expr.Binop (op, a, b) -> ref_apply_binop op (ref_eval schema tuple a) (ref_eval schema tuple b)
  | Expr.Cmp (op, a, b) -> ref_apply_cmp op (ref_eval schema tuple a) (ref_eval schema tuple b)
  | Expr.And (a, b) ->
    (match ref_eval schema tuple a with
     | Value.Bool false -> Value.Bool false
     | Value.Bool true -> ref_as_bool (ref_eval schema tuple b)
     | Value.Null -> Value.Bool false
     | v -> ref_bad_bool v)
  | Expr.Or (a, b) ->
    (match ref_eval schema tuple a with
     | Value.Bool true -> Value.Bool true
     | Value.Bool false -> ref_as_bool (ref_eval schema tuple b)
     | Value.Null -> ref_as_bool (ref_eval schema tuple b)
     | v -> ref_bad_bool v)
  | Expr.Not a ->
    (match ref_eval schema tuple a with
     | Value.Bool b -> Value.Bool (not b)
     | Value.Null -> Value.Bool false
     | v -> ref_bad_bool v)
  | Expr.Is_null a -> Value.Bool (Value.is_null (ref_eval schema tuple a))
  | Expr.Is_not_null a -> Value.Bool (not (Value.is_null (ref_eval schema tuple a)))

and ref_as_bool = function
  | Value.Bool _ as v -> v
  | Value.Null -> Value.Bool false
  | v -> ref_bad_bool v

let ref_eval_pred schema tuple expr =
  match ref_eval schema tuple expr with
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> ref_bad_bool v

let expr_schema =
  Schema.make
    [
      { Schema.name = "k"; ty = Value.Tint; nullable = false };
      { Schema.name = "a"; ty = Value.Tint; nullable = true };
      { Schema.name = "b"; ty = Value.Tint; nullable = true };
      { Schema.name = "p"; ty = Value.Tbool; nullable = true };
    ]

let gen_value =
  QCheck2.Gen.(
    oneof
      [
        pure Value.Null;
        map (fun n -> Value.Int n) (int_range (-3) 3);
        map (fun b -> Value.Bool b) bool;
        pure (Value.Str "s");
      ])

let gen_tuple =
  QCheck2.Gen.(
    map3
      (fun a b p -> [| Value.Int 1; a; b; p |])
      (oneof [ pure Value.Null; map (fun n -> Value.Int n) (int_range (-3) 3) ])
      (oneof [ pure Value.Null; map (fun n -> Value.Int n) (int_range (-3) 3) ])
      (oneof [ pure Value.Null; map (fun b -> Value.Bool b) bool ]))

(* expressions over the schema's columns and one unknown column, so
   NULLs, type errors, [bad_bool] and [Not_found] all occur *)
let gen_expr =
  QCheck2.Gen.(
    sized_size (int_range 0 5)
    @@ fix (fun self n ->
           let leaf =
             oneof
               [
                 map (fun c -> Expr.Col c) (oneofl [ "k"; "a"; "b"; "p"; "zz" ]);
                 map (fun v -> Expr.Lit v) gen_value;
               ]
           in
           if n = 0 then leaf
           else
             let sub = self (n / 2) in
             oneof
               [
                 leaf;
                 map3
                   (fun op a b -> Expr.Binop (op, a, b))
                   (oneofl Expr.[ Add; Sub; Mul; Div ])
                   sub sub;
                 map3
                   (fun op a b -> Expr.Cmp (op, a, b))
                   (oneofl Expr.[ Eq; Neq; Lt; Le; Gt; Ge ])
                   sub sub;
                 map2 (fun a b -> Expr.And (a, b)) sub sub;
                 map2 (fun a b -> Expr.Or (a, b)) sub sub;
                 map (fun a -> Expr.Not a) sub;
                 map (fun a -> Expr.Is_null a) sub;
                 map (fun a -> Expr.Is_not_null a) sub;
               ]))

let outcome f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let same_value a b =
  match a, b with
  | Ok x, Ok y -> Value.equal x y
  | Error x, Error y -> String.equal x y
  | Ok _, Error _ | Error _, Ok _ -> false

let prop_compile_matches_interpreter =
  QCheck2.Test.make ~name:"compiled expressions match the interpreter" ~count:2000
    ~print:(fun (e, tuple) -> Expr.to_string e ^ " on " ^ Tuple.to_string tuple)
    QCheck2.Gen.(pair gen_expr gen_tuple)
    (fun (e, tuple) ->
      let compiled = Expr.compile expr_schema e and pred = Expr.compile_pred expr_schema e in
      same_value
        (outcome (fun () -> compiled tuple))
        (outcome (fun () -> ref_eval expr_schema tuple e))
      && outcome (fun () -> pred tuple) = outcome (fun () -> ref_eval_pred expr_schema tuple e))

(* ---------- heap rids vs the free-page policy ---------- *)

(* A record this wide leaves 9 slots a page, so a short stream fills
   and frees many pages. *)
let heap_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "pad"; ty = Value.Tstring 400; nullable = false };
    ]

(* The policy, list-only: [free] lists the pages known to have a free
   slot, tried head first.  An insert fills the head page's lowest free
   slot and drops the page once full; a head page with no free slot is
   dropped and the next one tried; with none left a page is appended and
   listed unless already full.  A delete lists its page unless listed. *)
type model = { mutable pages : bool array list; mutable free : int list; cap : int }

let model_insert m =
  let rec go () =
    match m.free with
    | [] ->
      let pno = List.length m.pages in
      let page = Array.make m.cap false in
      page.(0) <- true;
      m.pages <- m.pages @ [ page ];
      if m.cap > 1 then m.free <- pno :: m.free;
      { Heap_file.page = pno; slot = 0 }
    | pno :: rest -> (
        let page = List.nth m.pages pno in
        match Array.find_index not page with
        | None ->
          m.free <- rest;
          go ()
        | Some slot ->
          page.(slot) <- true;
          if Array.for_all Fun.id page then m.free <- rest;
          { Heap_file.page = pno; slot })
  in
  go ()

let model_delete m (rid : Heap_file.rid) =
  (List.nth m.pages rid.page).(rid.slot) <- false;
  if not (List.mem rid.page m.free) then m.free <- rid.page :: m.free

(* a draw below 60 inserts (as does any draw with no live row); a larger
   one deletes the live row it picks *)
let gen_stream = QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 99))

let prop_rids_follow_free_page_policy =
  QCheck2.Test.make ~name:"heap rids follow the free-page policy" ~count:100 gen_stream
    (fun stream ->
      let vfs = Vfs.in_memory () in
      let pool = Buffer_pool.create ~vfs ~capacity:4 () in
      let heap = Heap_file.create pool (Vfs.create vfs "rids.heap") heap_schema in
      let m =
        { pages = []; free = [];
          cap = Page.max_records_per_page ~record_width:(Schema.record_size heap_schema) }
      in
      let live = ref [] in
      let next = ref 0 in
      List.for_all
        (fun r ->
          if r < 60 || !live = [] then begin
            incr next;
            let got = Heap_file.insert heap [| Value.Int !next; Value.Str "x" |] in
            let want = model_insert m in
            live := got :: !live;
            Heap_file.rid_compare got want = 0
          end
          else begin
            let victim = List.nth !live (r mod List.length !live) in
            live := List.filter (fun x -> Heap_file.rid_compare x victim <> 0) !live;
            ignore (Heap_file.delete heap victim : bytes);
            model_delete m victim;
            true
          end)
        stream)

(* ---------- the compiled UPDATE ... SET ---------- *)

let set_schema =
  Schema.make
    [
      { Schema.name = "id"; ty = Value.Tint; nullable = false };
      { Schema.name = "qty"; ty = Value.Tint; nullable = false };
      { Schema.name = "price"; ty = Value.Tint; nullable = false };
      { Schema.name = "last_modified"; ty = Value.Tdate; nullable = false };
    ]

let set_db () =
  let db = Db.create ~vfs:(Vfs.in_memory ()) ~name:"set" () in
  ignore
    (Db.create_table db ~name:"items" ~ts_column:"last_modified" set_schema : Dw_engine.Table.t);
  Db.with_txn db (fun txn ->
      ignore
        (Db.insert db txn "items" [| Value.Int 1; Value.Int 5; Value.Int 100; Value.Date 0 |]
          : Heap_file.rid));
  db

let only_row db =
  Db.with_txn db (fun txn ->
      match Db.select db txn "items" () with [ row ] -> row | _ -> Alcotest.fail "one row")

let int_of = function Value.Int n -> n | v -> Alcotest.failf "not an int: %s" (Value.to_string v)

let set_reads_before_image () =
  let db = set_db () in
  Db.advance_day db;
  let updated =
    Db.with_txn db (fun txn ->
        Db.update_where db txn "items"
          ~set:
            [
              ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 1)));
              ("price", Expr.Col "qty");
              ("last_modified", Expr.Lit (Value.Date 7));
            ]
          ~where:None)
  in
  Alcotest.(check int) "one row" 1 updated;
  let row = only_row db in
  Alcotest.(check int) "qty = qty + 1" 6 (int_of row.(1));
  Alcotest.(check int) "price = the before image's qty" 5 (int_of row.(2));
  Alcotest.(check bool) "the stamp overrides an explicit SET" true
    (Value.equal row.(3) (Value.Date (Db.current_day db)))

let later_set_of_a_column_wins () =
  let db = set_db () in
  ignore
    (Db.with_txn db (fun txn ->
         Db.update_where db txn "items"
           ~set:
             [
               ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 1)));
               ("qty", Expr.Binop (Expr.Add, Expr.Col "qty", Expr.Lit (Value.Int 10)));
             ]
           ~where:None)
      : int);
  Alcotest.(check int) "both read the before image; the later wins" 15 (int_of (only_row db).(1))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_bitmap_scan;
    QCheck_alcotest.to_alcotest prop_compile_matches_interpreter;
    QCheck_alcotest.to_alcotest prop_rids_follow_free_page_policy;
    test "SET expressions read the before image" set_reads_before_image;
    test "a later SET of one column wins" later_set_of_a_column_wins;
  ]
