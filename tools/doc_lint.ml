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
   [start_timer], [start_span]) or handle constructor ([counter],
   [hist], whose handles emit under that key) in the .ml files under
   the directories
   (outside any [--skip] directory) must appear in DOC as a backticked
   exact key or a backticked [prefix.*].  Keys built at run time
   ([sprintf], [^]) are not checked.

   With [--unused-exports ALLOWLIST LIBDIR DIR ...] it checks that every
   public [val] of an .mli under LIBDIR is named, qualified, by some .ml
   or .mli under the DIRs other than its own module's two files: [M.v]
   for a top-level [val v] of [m.mli], [M.S.v] for one inside [module S
   : sig ... end].  Comments do not count; a file's [module X = A.B]
   aliases do ([X.v] names [A.B.v]).  A value used only through [open]
   is flagged too, so ALLOWLIST holds the deliberate exceptions, one
   [M.v reason] a line ([#] starts a comment); an entry that is not
   flagged any more is an error as well.

   With [--sizes EXPECTED LIBDIR] it holds the size ratchet: the .ml
   and .mli lines under LIBDIR, the .ml lines under LIBDIR/experiments
   and the lines of LIBDIR's .mli files that start with [val ] may not
   exceed the counts EXPECTED holds, one [name count] a line ([#]
   starts a comment).

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

(* the calls that take a key: the emitters, and the handle constructors
   whose handles emit under the key they were built with *)
let emitters =
  [ "incr"; "add"; "observe"; "set_gauge"; "with_span"; "time"; "start_timer"; "start_span";
    "counter"; "hist" ]

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

(* ---------- unused exports ---------- *)

(* [text] with its comments blanked (nested; string and character
   literals inside code are kept, so a quote in one cannot open a
   comment) *)
let strip_comments text =
  let n = String.length text in
  let out = Bytes.of_string text in
  let rec code i =
    if i < n then
      if i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' then comment i 0
      else if text.[i] = '"' then code (string_end (i + 1))
      else if text.[i] = '\'' && i + 2 < n && text.[i + 1] <> '\\' && text.[i + 2] = '\'' then
        code (i + 3)
      else if text.[i] = '\'' && i + 1 < n && text.[i + 1] = '\\' then
        code (match String.index_from_opt text (i + 2) '\'' with Some j -> j + 1 | None -> n)
      else code (i + 1)
  and string_end i =
    if i >= n then n
    else if text.[i] = '\\' then string_end (i + 2)
    else if text.[i] = '"' then i + 1
    else string_end (i + 1)
  and comment i depth =
    if i >= n then ()
    else if i + 1 < n && text.[i] = '(' && text.[i + 1] = '*' then begin
      Bytes.blit_string "  " 0 out i 2;
      comment (i + 2) (depth + 1)
    end
    else if i + 1 < n && text.[i] = '*' && text.[i + 1] = ')' then begin
      Bytes.blit_string "  " 0 out i 2;
      if depth = 1 then code (i + 2) else comment (i + 2) (depth - 1)
    end
    else begin
      if text.[i] <> '\n' then Bytes.set out i ' ';
      comment (i + 1) depth
    end
  in
  code 0;
  Bytes.to_string out

let is_upper c = c >= 'A' && c <= 'Z'

(* the words of [text]: dotted identifier paths, and single punctuation *)
let words text =
  let n = String.length text in
  let rec go i acc =
    if i >= n then List.rev acc
    else if is_ident text.[i] && text.[i] <> '.' && text.[i] <> '\'' then
      let j = ref i in
      while !j < n && is_ident text.[!j] do incr j done;
      go !j (String.sub text i (!j - i) :: acc)
    else if text.[i] = '=' then go (i + 1) ("=" :: acc)
    else go (i + 1) acc
  in
  go 0 []

(* every qualified name [text] mentions: each run of two or more
   components of a dotted path that starts at a module component, after
   expanding the file's own [module X = A.B] aliases *)
let qualified_names text =
  let ws = words (strip_comments text) in
  let aliases = Hashtbl.create 8 in
  let rec find_aliases = function
    | "module" :: x :: "=" :: path :: rest when is_upper path.[0] ->
      Hashtbl.replace aliases x (String.split_on_char '.' path);
      find_aliases rest
    | _ :: rest -> find_aliases rest
    | [] -> ()
  in
  find_aliases ws;
  let names = ref [] in
  List.iter
    (fun w ->
      match String.split_on_char '.' w with
      | first :: (_ :: _ as rest) when is_upper first.[0] ->
        let comps =
          match Hashtbl.find_opt aliases first with Some path -> path @ rest | None -> first :: rest
        in
        let a = Array.of_list comps in
        let k = Array.length a in
        for i = 0 to k - 2 do
          if a.(i) <> "" && is_upper a.(i).[0] then
            for j = i + 1 to k - 1 do
              names := String.concat "." (Array.to_list (Array.sub a i (j - i + 1))) :: !names
            done
        done
      | _ -> ())
    ws;
  !names

(* the public vals of one .mli, qualified by its module (and by the
   [module S : sig] they sit in), with their line numbers *)
let public_vals path =
  let m = String.capitalize_ascii (Filename.remove_extension (Filename.basename path)) in
  let lines = read_lines path in
  let scope = ref [ m ] in
  let vals = ref [] in
  Array.iteri
    (fun i line ->
      let t = String.trim line in
      let ws = words t in
      match ws with
      | "module" :: s :: _ when String.length t > 4 && String.sub t (String.length t - 3) 3 = "sig" ->
        scope := s :: !scope
      | [ "end" ] when List.length !scope > 1 -> scope := List.tl !scope
      | "val" :: v :: _ when starts_with "val " t ->
        vals := (i + 1, String.concat "." (List.rev (v :: !scope))) :: !vals
      | _ -> ())
    lines;
  List.rev !vals

let lint_unused_exports ~allowlist ~lib dirs =
  let allowed =
    Array.to_list (read_lines allowlist)
    |> List.filter_map (fun line ->
           let t = String.trim line in
           if t = "" || t.[0] = '#' then None
           else
             match String.index_opt t ' ' with
             | Some j -> Some (String.sub t 0 j)
             | None ->
               err "%s: entry %s gives no reason" allowlist t;
               None)
  in
  (* qualified name -> the files naming it *)
  let named_by = Hashtbl.create 4096 in
  let scan path =
    let text = String.concat "\n" (Array.to_list (read_lines path)) in
    List.iter (fun name -> Hashtbl.add named_by name path) (qualified_names text)
  in
  List.iter (walk ".ml" scan) dirs;
  List.iter (walk ".mli" scan) dirs;
  let total = ref 0 and flagged = ref [] in
  walk ".mli"
    (fun mli ->
      let own = [ mli; Filename.remove_extension mli ^ ".ml" ] in
      List.iter
        (fun (line, name) ->
          incr total;
          let outside =
            List.exists (fun p -> not (List.mem p own)) (Hashtbl.find_all named_by name)
          in
          if not outside then flagged := (mli, line, name) :: !flagged)
        (public_vals mli))
    lib;
  List.iter
    (fun (mli, line, name) ->
      if not (List.mem name allowed) then
        err "%s:%d: val %s is named nowhere outside its module" mli line name)
    (List.rev !flagged);
  List.iter
    (fun name ->
      if not (List.exists (fun (_, _, n) -> n = name) !flagged) then
        err "%s: %s is used outside its module now; drop the entry" allowlist name)
    allowed;
  Printf.printf "doc-lint: %d public vals under %s, %d allowlisted\n" !total lib
    (List.length allowed)

(* ---------- size ratchet ---------- *)

let lint_sizes ~expected lib =
  let total suffix dir per_file =
    let n = ref 0 in
    walk suffix (fun path -> n := !n + per_file (read_lines path)) dir;
    !n
  in
  let vals lines = Array.fold_left (fun n l -> if starts_with "val " l then n + 1 else n) 0 lines in
  let measured =
    [
      ("lib_lines", total ".ml" lib Array.length + total ".mli" lib Array.length);
      ("experiments_lines", total ".ml" (Filename.concat lib "experiments") Array.length);
      ("public_vals", total ".mli" lib vals);
    ]
  in
  let limits =
    Array.to_list (read_lines expected)
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ name; n ] when name.[0] <> '#' -> Some (name, int_of_string n)
           | _ -> None)
  in
  List.iter
    (fun (name, n) ->
      match List.assoc_opt name limits with
      | None -> err "%s: no limit for %s" expected name
      | Some limit when n > limit -> err "%s: %s is %d, above its limit %d" expected name n limit
      | Some limit ->
        Printf.printf "doc-lint: %s %d (limit %d)%s\n" name n limit
          (if n < limit then "; lower the limit to hold the gain" else ""))
    measured

let report ?(failing = "undocumented") ~what dirs =
  match List.rev !errors with
  | [] -> Printf.printf "doc-lint: %s ok (%s)\n" what (String.concat " " dirs)
  | es ->
    List.iter prerr_endline es;
    Printf.eprintf "doc-lint: %d %s %s\n" (List.length es) failing what;
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
  | "--unused-exports" :: allowlist :: lib :: dirs ->
    lint_unused_exports ~allowlist ~lib dirs;
    report ~failing:"unused" ~what:"exports" dirs
  | [ "--sizes"; expected; lib ] ->
    lint_sizes ~expected lib;
    report ~failing:"over the ratchet" ~what:"sizes" [ lib ]
  | [] ->
    prerr_endline
      "usage: doc_lint DIR ... | doc_lint --metric-keys DOC [--skip DIR] DIR ... | doc_lint \
       --unused-exports ALLOWLIST LIBDIR DIR ... | doc_lint --sizes EXPECTED LIBDIR";
    exit 2
  | dirs ->
    List.iter (walk ".mli" lint_file) dirs;
    report ~what:"interface items" dirs
