(** Metrics registry: labeled counters, gauges and histograms.

    Registration (the cold path) resolves a (name, label set) pair to a
    handle; the hot path works on the handle alone — an {!inc} is a
    single in-place integer update and a histogram record is
    {!Hist.record}, so instrumentation can stay in per-packet code.
    Registering the same (name, labels) twice returns the same handle,
    so label families ("per router", "per drop cause") need no
    bookkeeping at the call site. *)

type t
(** A registry: an ordered collection of metric series. *)

type counter
type gauge

val create : unit -> t

val counter : t -> ?help:string -> ?labels:(string * string) list -> string -> counter
(** Register (or look up) a monotone integer counter. Raises
    [Invalid_argument] if the series exists with a different type. *)

val gauge : t -> ?help:string -> ?labels:(string * string) list -> string -> gauge
(** Register (or look up) a float gauge. *)

val histogram :
  t ->
  ?help:string ->
  ?labels:(string * string) list ->
  ?buckets:int ->
  ?min_exp:int ->
  string ->
  Hist.t
(** Register (or look up) a {!Hist.t} created with [buckets] (default
    32, minimum 3) and [min_exp] (default 0, making bin 1 the range
    [(0, 1]]); record into it with {!Hist.record}.  Raises
    [Invalid_argument] for fewer than 3 buckets. *)

val inc : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> float -> unit

type sample =
  | Counter_sample of int
  | Gauge_sample of float
  | Histogram_sample of Hist.t  (** a copy, detached from the registry *)

val snapshot : t -> (string * string * (string * string) list * sample) list
(** [(name, help, labels, sample)] for every registered series in
    registration order — the only view exporters need. *)
