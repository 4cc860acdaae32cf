(** Packet freelists for the zero-allocation hot path.

    A pool recycles dead {!Packet.t} records: the engine's [release]
    hooks return packets the network has killed (delivered, dropped,
    TTL-expired) and the traffic sources draw replacements from the
    freelist instead of the minor heap.  A pool is not thread-safe; each
    network owns one.

    Observers leave the pool live: listeners borrow the packet for the
    length of their callback, and the probe's journal copies what it
    keeps, so {!Net} hands a dead packet back the moment it dies.
    Poison mode catches an observer that keeps a packet anyway. *)

type t

type stats = {
  fresh : int;     (** packets allocated because the freelist was empty *)
  recycled : int;  (** acquisitions served by recycling *)
  released : int;  (** packets returned to the freelist *)
  available : int; (** current freelist depth *)
}

val create : ?poison:bool -> unit -> t
(** Fresh empty pool.  With [poison] (a debug mode), released packets are
    stamped with a sentinel uid and zero size so stale references read
    loudly-wrong data, and releasing the same packet twice fails. *)

val acquire :
  t ->
  clock:Sim.fbox ->
  uid:int -> src:int -> dst:int -> flow:int -> size:int -> Packet.proto ->
  Packet.t
(** A packet with the given content, created at [clock.f]: recycled from
    the freelist when one is available (via {!Packet.reinit}, which
    allocates nothing), freshly allocated otherwise.
    The time is read from the box: a float argument would be boxed at
    every mint. *)

val release : t -> Packet.t -> unit
(** Return a dead packet to the freelist.  The caller must hold the only
    live reference.  In poison mode, raises [Failure] on a double
    release. *)

val is_poisoned : Packet.t -> bool
(** Whether a packet currently carries the poison stamp, i.e. reading it
    is a use-after-release bug (meaningful in poison mode only). *)

val stats : t -> stats
