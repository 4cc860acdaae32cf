(** Exporters: a dependency-free JSON value type with an emitter and a
    matching parser, plus registry renderers (JSON document and
    Prometheus text exposition format).

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

val json_of_registry : Metrics.t -> json
(** One entry per series: name, labels, type and value (histograms carry
    per-bucket counts with upper edges, plus sum and count). *)

val prometheus_of_registry : Metrics.t -> string
(** Prometheus text format: # HELP / # TYPE headers, label escaping,
    histograms rendered exactly as {!prometheus_append_hist} renders
    them. *)

(** {2 Always-on collector exposition}

    The mergeable {!Hist} / {!Timeseries} collectors round-trip through
    JSON ([x = of_json (to_json x)] bucket for bucket — exported sums
    are exact multiples of {!Hist.quantum}) and render to the same
    Prometheus text format as the registry, with [le=] edges exactly
    {!Hist.uppers}. *)

val json_of_hist : Hist.t -> json
val hist_of_json : json -> (Hist.t, string) result

val json_of_timeseries : Timeseries.t -> json
val timeseries_of_json : json -> (Timeseries.t, string) result

val prometheus_append_hist :
  Buffer.t -> name:string -> ?help:string -> ?labels:(string * string) list ->
  Hist.t -> unit

val prometheus_of_hist :
  name:string -> ?help:string -> ?labels:(string * string) list -> Hist.t ->
  string
(** Cumulative [_bucket{le=...}] / [_sum] / [_count] lines whose [le=]
    edges are exactly [Hist.uppers]. *)

val prometheus_append_timeseries :
  Buffer.t -> name:string -> ?help:string -> ?labels:(string * string) list ->
  Timeseries.t -> unit

val prometheus_of_timeseries :
  name:string -> ?help:string -> ?labels:(string * string) list ->
  Timeseries.t -> string
(** Two gauge vectors, [<name>_bucket_count{t=...}] and
    [<name>_bucket_sum{t=...}], labelled by inclusive bucket start
    time. *)
