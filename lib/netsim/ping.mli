(** Echo request/reply measurement (the RTT trace of Fig 5.7).

    A ping source emits a request every [interval]; the destination app
    answers with an equal-size reply; the source records per-probe round
    trip times. *)

type t

val start :
  Net.t ->
  src:int ->
  dst:int ->
  ?interval:float ->
  start:float ->
  stop:float ->
  unit ->
  t
(** Begin probing (default interval 1 s) with 100 B requests.  Raises
    [Invalid_argument] unless [interval] is positive and finite. *)

val samples : t -> (float * float) list
(** [(send_time, rtt)] pairs in send order, completed probes only. *)

val sent : t -> int
val lost : t -> int
(** Probes sent and probes with no reply so far (in-flight probes count
    as lost until answered, so read after the run settles). *)
