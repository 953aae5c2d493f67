type column = { name : string; ty : Value.ty; nullable : bool }

type t = {
  cols : column array;
  key_arity : int;
  by_name : (string, int) Hashtbl.t;
  record_size : int;
}

let make ?(key_arity = 1) cols =
  let cols = Array.of_list cols in
  let n = Array.length cols in
  if n = 0 then invalid_arg "Schema.make: empty column list";
  if key_arity < 1 || key_arity > n then invalid_arg "Schema.make: bad key_arity";
  let by_name = Hashtbl.create n in
  Array.iteri
    (fun i c ->
      if c.name = "" then invalid_arg "Schema.make: empty column name";
      if Hashtbl.mem by_name c.name then
        invalid_arg (Printf.sprintf "Schema.make: duplicate column %s" c.name);
      Hashtbl.add by_name c.name i)
    cols;
  let record_size =
    let bitmap = (n + 7) / 8 in
    Array.fold_left (fun acc c -> acc + Value.encoded_size c.ty) bitmap cols
  in
  { cols; key_arity; by_name; record_size }

let columns t = Array.to_list t.cols
let arity t = Array.length t.cols
let key_arity t = t.key_arity

let column t i =
  if i < 0 || i >= Array.length t.cols then invalid_arg "Schema.column: out of bounds";
  t.cols.(i)

let index_of_opt t name = Hashtbl.find_opt t.by_name name

let index_of t name =
  match index_of_opt t name with Some i -> i | None -> raise Not_found

let mem t name = Hashtbl.mem t.by_name name
let record_size t = t.record_size

let equal a b =
  a.key_arity = b.key_arity
  && Array.length a.cols = Array.length b.cols
  && Array.for_all2 (fun x y -> x.name = y.name && x.ty = y.ty && x.nullable = y.nullable) a.cols b.cols

let project t names =
  let cols = List.map (fun n -> t.cols.(index_of t n)) names in
  make ~key_arity:(List.length cols) cols
