(** Exporters: a dependency-free JSON value type with an emitter and a
    matching parser, plus Prometheus text exposition renderers for the
    fixed-point {!Hist} / {!Timeseries} collectors and plain counters.

    The parser exists so tests (and downstream tooling) can read the
    exporters' own output back without an external JSON library; it
    covers the full value grammar and decodes BMP [\u] escapes to
    UTF-8.  Surrogate pairs (astral-plane characters) are not
    reassembled — each half folds to ['?']. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Assoc of (string * json) list

val to_string : json -> string
(** Compact rendering.  NaN renders as [null]; infinities as the
    out-of-range literal [1e999] (which parses back to [infinity]). *)

val to_channel : out_channel -> json -> unit

val write_file : string -> json -> unit
(** Serialize to a file, newline-terminated. *)

val of_string : string -> (json, string) result

val read_file : string -> (json, string) result
(** Parse a file holding one JSON document (surrounding whitespace
    ignored).  The error is the [Sys_error] text when the file cannot be
    read, and ["<path>: <parse error>"] when it does not parse. *)

val member : string -> json -> json option
(** Field lookup on an [Assoc]; [None] elsewhere. *)

val to_int : json -> int option
(** Also truncates a [Float]. *)

val to_float : json -> float option
(** Also widens an [Int]. *)

val to_list_opt : json -> json list option
val to_string_opt : json -> string option

(** {2 Prometheus text exposition}

    Each function renders one {e family}: a single [# HELP] / [# TYPE]
    header, then every member's samples under that member's labels
    (label values escaped); an empty member list renders nothing.
    Histogram [le=] edges are exactly {!Hist.uppers}. *)

val prometheus_append_hists :
  Buffer.t -> name:string -> ?help:string ->
  ((string * string) list * Hist.t) list -> unit
(** Cumulative [_bucket{le=...}] / [_sum] / [_count] lines per member. *)

val prometheus_append_hist :
  Buffer.t -> name:string -> ?help:string -> ?labels:(string * string) list ->
  Hist.t -> unit
(** The family of one histogram, under [labels] (default none). *)

val prometheus_append_counters :
  Buffer.t -> name:string -> ?help:string ->
  ((string * string) list * int) list -> unit
(** One counter sample per member. *)

val prometheus_append_timeseries :
  Buffer.t -> name:string -> ((string * string) list * Timeseries.t) list -> unit
(** Two gauge families, [<name>_bucket_count] and [<name>_bucket_sum]:
    one sample per member and bucket, labelled by the member's labels
    and the bucket's inclusive start time [t]. *)
