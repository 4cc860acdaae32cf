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
(** Constant spacing [1/rate_pps]; packets of [size] bytes.  Raises
    [Invalid_argument] on a rate that is not positive and finite (NaN
    included), a non-positive size, a non-finite [start], a NaN [stop]
    or [stop < start]; [stop] may be [infinity]. *)

val poisson :
  Net.t ->
  src:int ->
  dst:int ->
  rate_pps:float ->
  size:int ->
  start:float ->
  stop:float ->
  t
(** Exponential inter-departure times with the given mean rate; the
    arguments are checked as for {!cbr}. *)

val delivered_counter : Net.t -> node:int -> flow:int -> (unit -> int)
(** Attach a counting sink for a flow at a node; the returned thunk reads
    the count. *)
