(** Measurement tap: per-flow delivery series.

    The Chapter 6 figures plot victim-flow throughput collapsing under
    attack next to the detector's confidence; this module collects that
    series from the event stream without touching the forwarding path.
    Per-router queue depth is kept by {!Stats}. *)

type flow_series

val flow_throughput :
  Net.t -> node:int -> flow:int -> bucket:float -> flow_series
(** Record the bytes of [flow] delivered at [node] into [bucket]-second
    bins. *)

val series : flow_series -> (float * float) list
(** [(bin end time, bytes/second over the bin)] in time order, including
    empty bins up to the last delivery. *)

val total_bytes : flow_series -> int
