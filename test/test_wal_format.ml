(* The WAL's on-disk record format, frozen.  [Log_record.encode] must stay
   byte-identical to the straightforward Buffer-based encoder kept below
   as an oracle, over generated records of all seven body kinds, and one
   golden frame per kind pins the bytes themselves: any change to the
   on-disk format fails here loudly. *)

module Heap_file = Dw_storage.Heap_file
module Log_record = Dw_txn.Log_record

let check = Alcotest.check
let test name f = Alcotest.test_case name `Quick f

(* ---------- oracle: the reference encoder ---------- *)

module Oracle = struct
  let fnv1a bytes off len =
    let h = ref 0x811c9dc5 in
    for i = off to off + len - 1 do
      h := (!h lxor Char.code (Bytes.get bytes i)) * 0x01000193 land 0xFFFFFFFF
    done;
    !h

  let put_u32 buf v =
    Buffer.add_char buf (Char.chr (v land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 8) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 16) land 0xFF));
    Buffer.add_char buf (Char.chr ((v lsr 24) land 0xFF))

  let put_i64 buf v =
    let b = Bytes.create 8 in
    Bytes.set_int64_le b 0 (Int64.of_int v);
    Buffer.add_bytes buf b

  let put_bytes buf b =
    put_u32 buf (Bytes.length b);
    Buffer.add_bytes buf b

  let put_string buf s =
    put_u32 buf (String.length s);
    Buffer.add_string buf s

  let put_rid buf (rid : Heap_file.rid) =
    put_u32 buf rid.Heap_file.page;
    put_u32 buf rid.Heap_file.slot

  let tag_of_body = function
    | Log_record.Begin -> 0
    | Log_record.Commit -> 1
    | Log_record.Abort -> 2
    | Log_record.Insert _ -> 3
    | Log_record.Delete _ -> 4
    | Log_record.Update _ -> 5
    | Log_record.Checkpoint _ -> 6

  let encode (t : Log_record.t) =
    let payload = Buffer.create 64 in
    Buffer.add_char payload (Char.chr (tag_of_body t.body));
    put_i64 payload t.tx;
    (match t.body with
     | Log_record.Begin | Log_record.Commit | Log_record.Abort -> ()
     | Log_record.Insert { table; rid; after } ->
       put_string payload table;
       put_rid payload rid;
       put_bytes payload after
     | Log_record.Delete { table; rid; before } ->
       put_string payload table;
       put_rid payload rid;
       put_bytes payload before
     | Log_record.Update { table; rid; before; after } ->
       put_string payload table;
       put_rid payload rid;
       put_bytes payload before;
       put_bytes payload after
     | Log_record.Checkpoint active ->
       put_u32 payload (List.length active);
       List.iter (fun tx -> put_i64 payload tx) active);
    let plen = Buffer.length payload in
    let out = Bytes.create (8 + plen) in
    Bytes.set_int32_le out 0 (Int32.of_int (8 + plen));
    Buffer.blit payload 0 out 8 plen;
    Bytes.set_int32_le out 4 (Int32.of_int (fnv1a out 8 plen));
    out
end

let hex b =
  Bytes.to_seq b |> List.of_seq
  |> List.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> String.concat ""

(* ---------- byte identity over generated records ---------- *)

let two31 = 1 lsl 31

let gen_u32 =
  (* small values, values around 2^31 (the sign bit of a 32-bit field)
     and the top of the u32 range *)
  QCheck2.Gen.(
    oneof
      [
        int_range 0 100;
        int_range (two31 - 4) (two31 + 4);
        int_range ((1 lsl 32) - 4) ((1 lsl 32) - 1);
      ])

let gen_record =
  QCheck2.Gen.(
    let tx = oneof [ int_range 0 100; int; int_range (two31 - 2) (two31 + 2) ] in
    let table = string_size ~gen:printable (int_range 0 12) in
    let image = map Bytes.of_string (string_size ~gen:char (int_range 0 40)) in
    let rid = map2 (fun page slot -> { Heap_file.page; slot }) gen_u32 gen_u32 in
    let body =
      oneof
        [
          pure Log_record.Begin;
          pure Log_record.Commit;
          pure Log_record.Abort;
          map3 (fun table rid after -> Log_record.Insert { table; rid; after }) table rid image;
          map3 (fun table rid before -> Log_record.Delete { table; rid; before }) table rid image;
          map3
            (fun table rid (before, after) -> Log_record.Update { table; rid; before; after })
            table rid (pair image image);
          map (fun l -> Log_record.Checkpoint l) (list_size (int_range 0 6) tx);
        ]
    in
    map2 (fun tx body -> { Log_record.tx; body }) tx body)

let print_record r = Format.asprintf "%a" Log_record.pp r

let prop_encode_matches_oracle =
  QCheck2.Test.make ~name:"encode is byte-identical to the reference encoder" ~count:500
    ~print:print_record gen_record (fun r ->
      let got = Log_record.encode r in
      Bytes.equal got (Oracle.encode r)
      &&
      match Log_record.decode got ~off:0 with
      | Ok (r', next) -> next = Bytes.length got && Bytes.equal (Log_record.encode r') got
      | Error _ -> false)

(* the log buffer's in-place encoder writes the same bytes at any offset,
   touches nothing around them, and reports their length *)
let prop_encode_into_matches_encode =
  QCheck2.Test.make ~name:"encode_into writes encode's bytes in place" ~count:300
    ~print:(fun (r, off) -> Printf.sprintf "%s at %d" (print_record r) off)
    QCheck2.Gen.(pair gen_record (int_bound 64))
    (fun (r, off) ->
      let want = Oracle.encode r in
      let n = Bytes.length want in
      let buf = Bytes.make (off + n + 3) '\xaa' in
      Log_record.frame_length r = n
      && Log_record.encode_into r buf ~off = n
      && Bytes.equal (Bytes.sub buf off n) want
      && Bytes.for_all (fun c -> c = '\xaa') (Bytes.sub buf 0 off)
      && Bytes.equal (Bytes.sub buf (off + n) 3) (Bytes.make 3 '\xaa')
      && match Log_record.encode_into r buf ~off:(off + 4) with
         | _ -> false
         | exception Invalid_argument _ -> true)

(* ---------- golden frames, one per body kind ---------- *)

let rid page slot = { Heap_file.page; slot }

let golden =
  [
    ("begin", { Log_record.tx = 1; body = Log_record.Begin }, "11000000de22846b000100000000000000");
    ( "commit",
      { Log_record.tx = 2; body = Log_record.Commit },
      "110000004e7f5f62010200000000000000" );
    ("abort", { Log_record.tx = 3; body = Log_record.Abort }, "110000000663d868020300000000000000");
    ( "insert",
      {
        Log_record.tx = 4;
        body = Log_record.Insert { table = "parts"; rid = rid 1 2; after = Bytes.of_string "abc" };
      },
      "29000000a9dfde04030400000000000000050000007061727473010000000200000003000000616263" );
    ( "delete",
      {
        Log_record.tx = 5;
        body = Log_record.Delete { table = "t"; rid = rid (two31 - 1) 0; before = Bytes.empty };
      },
      "220000005594125d0405000000000000000100000074ffffff7f0000000000000000" );
    ( "update",
      {
        Log_record.tx = 1 lsl 40;
        body =
          Log_record.Update
            {
              table = "";
              rid = rid 3 two31;
              before = Bytes.of_string "old";
              after = Bytes.of_string "new!";
            };
      },
      "2c000000a52ba7b5050000000000010000000000000300000000000080030000006f6c64040000006e657721" );
    ( "checkpoint",
      { Log_record.tx = 0; body = Log_record.Checkpoint [ 7; -1; 1 lsl 33 ] },
      "2d000000b79981a4060000000000000000030000000700000000000000ffffffffffffffff0000000002000000"
    );
  ]

let golden_frames () =
  List.iter
    (fun (name, record, frame) ->
      check Alcotest.string (name ^ " frame") frame (hex (Log_record.encode record));
      check Alcotest.string (name ^ " oracle") frame (hex (Oracle.encode record)))
    golden

let suite =
  [
    QCheck_alcotest.to_alcotest prop_encode_matches_oracle;
    test "golden frame per body kind" golden_frames;
    QCheck_alcotest.to_alcotest prop_encode_into_matches_encode;
  ]
