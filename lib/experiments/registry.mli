(** The experiment registry: every experiment the suite can run, in run
    order.  [dwbench run|stats|list] selects from this one list. *)

type experiment = {
  id : string;  (** selector on the command line, e.g. ["t3"] *)
  description : string;  (** one line for [dwbench list] *)
  run : scale:int -> unit;  (** prints its tables; [scale >= 1] *)
}

val all : experiment list
(** Every experiment, in the order [all] runs them. *)

val ids : string list
(** [List.map (fun e -> e.id) all]. *)

val unknown_ids : string list -> string list
(** The requested ids that name no experiment (["all"] is always known). *)

val unknown_ids_message : string list -> string
(** The error for {!unknown_ids}: the bad ids and every valid one.  A
    typo'd id must fail loudly, never silently run the remaining ids — a
    CI job that misspells a gated id would otherwise pass without
    running it. *)

val select : string list -> experiment list
(** The experiments [ids] asks for, in registry order; ["all"] selects
    every one. *)
