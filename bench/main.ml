(* Experiment harness: a thin alias for `dwbench run` over the same
   experiment registry (Dw_experiments.Registry) — regenerates every
   table and figure of the paper's evaluation (scaled) plus the
   warehouse-side experiments and a bechamel micro suite.

     dune exec bench/main.exe            # everything, scale 1
     dune exec bench/main.exe -- t1 f2   # selected experiments
     dune exec bench/main.exe -- --scale 2 all

   `dune exec bin/dwbench.exe -- list` prints the ids (see DESIGN.md). *)

module Registry = Dw_experiments.Registry

let usage () =
  Printf.printf "usage: main.exe [--scale N] [%s|all ...]\n" (String.concat "|" Registry.ids);
  exit 1

let () =
  let scale = ref 1 in
  let rec parse acc = function
    | [] -> List.rev acc
    | "--scale" :: n :: rest -> (
        match int_of_string_opt n with
        | Some v when v >= 1 ->
          scale := v;
          parse acc rest
        | Some _ | None -> usage ())
    | ("-h" | "--help") :: _ -> usage ()
    | x :: rest -> parse (String.lowercase_ascii x :: acc) rest
  in
  let selected = parse [] (List.tl (Array.to_list Sys.argv)) in
  (match Registry.unknown_ids selected with
   | [] -> ()
   | unknown ->
     prerr_endline (Registry.unknown_ids_message unknown);
     exit 1);
  let selected = if selected = [] then [ "all" ] else selected in
  let total = Unix.gettimeofday () in
  Printf.printf
    "Delta-extraction experiment harness (scale %d; paper sizes are scaled to row counts, see \
     EXPERIMENTS.md)\n"
    !scale;
  List.iter (fun x -> x.Registry.run ~scale:!scale) (Registry.select selected);
  Printf.printf "\ntotal harness time: %s\n"
    (Dw_util.Fmt_util.human_duration (Unix.gettimeofday () -. total))
