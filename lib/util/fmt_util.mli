(** Formatting helpers shared by benches and examples. *)

val human_bytes : int -> string
(** [human_bytes 1536] is ["1.5KB"]; units up to TB. *)

val human_duration : float -> string
(** [human_duration seconds] renders like the paper's tables: ["43min"],
    ["1hr 8min"], ["862ms"], ["3.2s"]. *)

val table : header:string list -> rows:string list list -> string
(** Render an aligned plain-text table with a separator under the header. *)
