(** Open-loop (UDP) traffic generators.

    Constant-bit-rate and Poisson sources provide the background load of
    the experiments; they do not react to loss, which makes them the
    cleanest probes of queue behaviour. *)

type t

val flow_id : t -> int
val sent : t -> int
(** Packets handed to the source router so far. *)

val cbr :
  Net.t ->
  src:int ->
  dst:int ->
  rate_pps:float ->
  size:int ->
  start:float ->
  stop:float ->
  t
(** Constant spacing [1/rate_pps]; packets of [size] bytes.  The
    packet due at a nominal time [n] ([start], [start + 1/rate_pps],
    ... while [n <= stop]) is created at [n] ([Packet.created]) and
    reaches the source router's output queue at [n + j], where j is the
    router's processing jitter (uniform below the network's
    [jitter_bound]), or at the current instant if that is later,
    which still lies below [n + jitter_bound].  Raises
    [Invalid_argument] on a rate that is not positive and finite (NaN
    included), a non-positive size, a non-finite [start] or one before
    the current instant, a NaN [stop] or [stop < start]; [stop] may be
    [infinity]. *)

val poisson :
  Net.t ->
  src:int ->
  dst:int ->
  rate_pps:float ->
  size:int ->
  start:float ->
  stop:float ->
  t
(** Exponential inter-departure times with the given mean rate between
    nominal times, each packet jittered as in {!cbr}; the arguments are
    checked as for {!cbr}. *)

val delivered_counter : Net.t -> node:int -> flow:int -> (unit -> int)
(** Attach a counting sink for a flow at a node; the returned thunk reads
    the count. *)
