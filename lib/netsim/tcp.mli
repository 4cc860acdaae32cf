(** TCP Reno over the simulated network.

    Chapter 6's experiments hinge on TCP's closed-loop behaviour: normal
    congestion drops are created by TCP itself filling the bottleneck
    buffer, and targeted attacks (dropping a victim's SYN, or a few of
    its data segments) collapse the victim's throughput while barely
    perturbing aggregate counters.  This is a faithful-but-compact Reno:
    slow start, congestion avoidance, fast retransmit/recovery,
    RFC 6298-style RTO estimation with exponential backoff, a 3 s initial
    SYN timeout, and a cumulative-ACK receiver with an out-of-order
    buffer. *)

type t

val connect :
  Net.t ->
  src:int ->
  dst:int ->
  ?mss:int ->
  ?total_bytes:int ->
  ?start:float ->
  ?stop:float ->
  unit ->
  t
(** Start a connection at [start] (default 0).  [mss] is the payload
    bytes per segment (default 960; 40 header bytes are added on the
    wire).  [total_bytes] bounds the transfer (default unbounded); [stop]
    stops offering new data after that time. *)

val flow_id : t -> int
val established : t -> bool
val connect_time : t -> float option
(** When the SYN-ACK arrived (attack 4 delays this by seconds). *)

val bytes_acked : t -> int

val retransmits : t -> int
(** Number of retransmitted segments (fast + timeout). *)

val timeouts : t -> int
(** Number of RTO firings. *)

val syn_retries : t -> int
(** SYN retransmissions (3 s, then exponential backoff). *)

val finished : t -> bool
(** All of [total_bytes] acknowledged. *)

val finish_time : t -> float option
(** When the last byte was acknowledged. *)

val goodput : t -> at:float -> float
(** Average acknowledged bytes/second from [start] to [at]. *)
