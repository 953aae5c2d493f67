(* Documentation lint for the public interfaces, run by `dune build @doc`
   (odoc is not part of the toolchain this repo builds with, so the doc
   alias carries this checker instead).

   For every .mli under the directories given on the command line:

   - the file must open with a module-level ocamldoc comment;
   - every [val] item must have a doc comment attached — either the
     special comment immediately after its signature (the style used
     throughout this repo) or immediately before the [val].

   With [--metric-keys DOC [--skip DIR] DIR ...] it checks metric names
   instead: every string-literal key passed to a [Metrics] emit call
   ([incr], [add], [observe], [set_gauge], [with_span], [time],
   [start_timer], [start_span]) in the .ml files under the directories
   (outside any [--skip] directory) must appear in DOC as a backticked
   exact key or a backticked [prefix.*].  Keys built at run time
   ([sprintf], [^]) are not checked.

   Exits 1 listing every undocumented item. *)

let errors = ref []
let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      Array.of_list (List.rev acc)
  in
  go []

let is_blank s = String.trim s = ""
let starts_with prefix s = String.length s >= String.length prefix
                           && String.sub s 0 (String.length prefix) = prefix
let trimmed_starts prefix s = starts_with prefix (String.trim s)

(* an "item start" ends the forward search for a val's trailing doc *)
let item_start s =
  let t = String.trim s in
  List.exists (fun p -> starts_with p t) [ "val "; "type "; "module "; "exception "; "end" ]

let has_doc_comment_forward lines i =
  (* scan past the signature: the val is documented if a doc-comment
     opener appears before the next item starts *)
  let n = Array.length lines in
  let rec go j first =
    if j >= n then false
    else
      let t = String.trim lines.(j) in
      if (not first) && item_start lines.(j) then false
      else if
        (* a doc comment on the tail of the signature line itself, or on
           its own line after it *)
        (let rec find_sub k =
           k + 3 <= String.length t
           && (String.sub t k 3 = "(**" || find_sub (k + 1))
         in
         find_sub 0)
      then true
      else go (j + 1) false
  in
  go i true

let has_doc_comment_backward lines i =
  (* the line immediately above ends a comment (a doc directly attached
     before the val; a blank line in between detaches it) *)
  i > 0
  &&
  let t = String.trim lines.(i - 1) in
  let len = String.length t in
  len >= 2 && String.sub t (len - 2) 2 = "*)"

let lint_file path =
  let lines = read_lines path in
  let n = Array.length lines in
  (* module-level doc: first non-blank line opens an ocamldoc comment *)
  let rec first_non_blank i = if i >= n then None else if is_blank lines.(i) then first_non_blank (i + 1) else Some i in
  (match first_non_blank 0 with
   | Some i when trimmed_starts "(**" lines.(i) -> ()
   | Some _ | None -> err "%s: missing module-level doc-comment header" path);
  for i = 0 to n - 1 do
    if trimmed_starts "val " lines.(i) then
      if not (has_doc_comment_forward lines i || has_doc_comment_backward lines i) then
        let name =
          let t = String.trim lines.(i) in
          match String.index_opt t ':' with
          | Some j -> String.trim (String.sub t 4 (j - 4))
          | None -> t
        in
        err "%s:%d: val %s has no doc comment" path (i + 1) name
  done

let rec walk ?(skip = []) suffix f path =
  if List.mem path skip then ()
  else if Sys.is_directory path then
    let entries = Sys.readdir path in
    Array.sort compare entries;
    Array.iter (fun entry -> walk ~skip suffix f (Filename.concat path entry)) entries
  else if Filename.check_suffix path suffix then f path

(* ---------- metric keys ---------- *)

(* the backticked spans of the operator guide: exact keys, and [p.*]
   prefixes *)
let documented_keys doc =
  let text = String.concat "\n" (Array.to_list (read_lines doc)) in
  let spans = List.filteri (fun i _ -> i mod 2 = 1) (String.split_on_char '`' text) in
  let prefixes =
    List.filter_map
      (fun s ->
        let n = String.length s in
        if n >= 2 && String.sub s (n - 2) 2 = ".*" then Some (String.sub s 0 (n - 1)) else None)
      spans
  in
  fun key -> List.mem key spans || List.exists (fun p -> starts_with p key) prefixes

let emitters =
  [ "incr"; "add"; "observe"; "set_gauge"; "with_span"; "time"; "start_timer"; "start_span" ]

let is_ident c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' | '.' -> true | _ -> false

(* the string-literal keys of every [Metrics.<emitter> <registry> "key"]
   call in [text], with their line numbers; the registry argument is an
   identifier path or one parenthesised expression *)
let metric_keys text =
  let n = String.length text in
  let line_of i =
    let l = ref 1 in
    String.iteri (fun j c -> if j < i && c = '\n' then incr l) text;
    !l
  in
  let rec skip_ws i =
    if i < n && (text.[i] = ' ' || text.[i] = '\n') then skip_ws (i + 1) else i
  in
  let rec skip_ident i = if i < n && is_ident text.[i] then skip_ident (i + 1) else i in
  let rec skip_parens i depth =
    if i >= n then n
    else
      match text.[i] with
      | '(' -> skip_parens (i + 1) (depth + 1)
      | ')' -> if depth = 1 then i + 1 else skip_parens (i + 1) (depth - 1)
      | _ -> skip_parens (i + 1) depth
  in
  let marker = "Metrics." in
  let m = String.length marker in
  let keys = ref [] in
  let rec scan i =
    if i + m <= n then
      if String.sub text i m = marker && (i = 0 || not (is_ident text.[i - 1]) || text.[i - 1] = '.')
      then begin
        let name_end = skip_ident (i + m) in
        let name = String.sub text (i + m) (name_end - i - m) in
        (if List.mem name emitters then
           let arg = skip_ws name_end in
           let arg_end =
             if arg < n && text.[arg] = '(' then skip_parens arg 0
             else if arg < n && is_ident text.[arg] then skip_ident arg
             else arg
           in
           let lit = skip_ws arg_end in
           if arg_end > arg && lit < n && text.[lit] = '"' then
             match String.index_from_opt text (lit + 1) '"' with
             | Some close
               when let next = skip_ws (close + 1) in
                    next >= n || text.[next] <> '^' ->
               keys := (line_of i, String.sub text (lit + 1) (close - lit - 1)) :: !keys
             | Some _ | None -> ());
        scan name_end
      end
      else scan (i + 1)
  in
  scan 0;
  List.rev !keys

let lint_metric_keys ~documented path =
  let text = String.concat "\n" (Array.to_list (read_lines path)) in
  List.iter
    (fun (line, key) ->
      if not (documented key) then
        err "%s:%d: metric key %s is not in the operator guide" path line key)
    (metric_keys text)

let report ~what dirs =
  match List.rev !errors with
  | [] -> Printf.printf "doc-lint: %s ok (%s)\n" what (String.concat " " dirs)
  | es ->
    List.iter prerr_endline es;
    Printf.eprintf "doc-lint: %d undocumented %s\n" (List.length es) what;
    exit 1

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "--metric-keys" :: doc :: rest ->
    let rec split skip = function
      | "--skip" :: dir :: rest -> split (dir :: skip) rest
      | dirs -> (skip, dirs)
    in
    let skip, dirs = split [] rest in
    let documented = documented_keys doc in
    List.iter (walk ~skip ".ml" (lint_metric_keys ~documented)) dirs;
    report ~what:"metric keys" dirs
  | [] ->
    prerr_endline "usage: doc_lint DIR ... | doc_lint --metric-keys DOC [--skip DIR] DIR ...";
    exit 2
  | dirs ->
    List.iter (walk ".mli" lint_file) dirs;
    report ~what:"interface items" dirs
