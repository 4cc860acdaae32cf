(** Run profiling: named wall-clock phase accumulators.

    Wrap each stage of a run ([setup], [run], [report], ...) in
    {!time}; the per-phase wall seconds and call counts come out in the
    run summary, which is how simulator self-performance ("events/sec,
    wall-clock per phase") is tracked from PR to PR. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** Run a thunk, charging its wall-clock time to the named phase
    (accumulating across calls; exception-safe). *)

val json : t -> Export.json
(** One [{phase; wall_seconds; calls}] object per phase, in first-use
    order. *)
