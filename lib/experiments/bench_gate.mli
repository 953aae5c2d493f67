(** The bench gate for dwbench's [--json] documents: one table with one
    row per gated key, checked by [dwbench check DOC [--baseline BASE]]
    (the [@bench-json] alias and CI) and by [dwbench run --json] on the
    document it just wrote.  A row names a histogram or gauge the
    document must carry; a gauge row may add relations its value must
    satisfy inside the document, and its own drift band against a
    baseline run in the same mode (quick or full). *)

module Json = Dw_util.Json

type kind = Histogram | Gauge
type cmp = Eq | Lt | Le | Gt | Ge

type operand =
  | Const of float
  | Times of float * string  (** [Times (f, k)]: [f] times gauge [k] of the same document *)

type relation = {
  cmp : cmp;
  rhs : operand;
  full_only : bool;  (** binds only when the document's [quick] flag is false *)
}

type drift =
  | Exact  (** deterministic value: must equal the baseline *)
  | Lower_better of float  (** latency/window: fails only above [base * (1 + tol)] *)
  | Higher_better of float  (** throughput/speedup: fails only below [base * (1 - tol)] *)

type row = { key : string; kind : kind; relations : relation list; drift : drift option }

val table : row list
(** Every gated key, exactly once. *)

val gated_ids : string list
(** The experiments whose metrics {!table} names. *)

type outcome = {
  row : row;
  value : float option;  (** the document's value of a gauge row *)
  base : float option;  (** the baseline's value of a gauge row *)
  failure : string option;  (** the first condition the row violates *)
}

type report = { summary : string; outcomes : outcome list; failures : int }

val check : ?strict:bool -> ?baseline:Json.t -> Json.t -> (report, string) result
(** [check doc] validates the document's shape (top-level keys, per-
    experiment counters/gauges/histograms objects, non-empty histograms
    with numeric percentiles) and, when [strict] (the default), evaluates
    every row of {!table}: presence, relations, and drift against
    [baseline] when given.  A gated key missing from either document
    fails its row.  [dwbench run --json] passes [strict:false] for runs
    that do not cover {!gated_ids}; [outcomes] is then empty.  [Error] on
    a malformed document or baseline, or a quick/full mode mismatch. *)

val render : report -> string
(** The rows that failed or were compared against a baseline, as a
    table, plus a one-line summary. *)
