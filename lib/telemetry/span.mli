(** Causal spans, traces and verdict provenance.

    A span collector is the distributed-tracing layer on top of
    {!Journal}: a bounded ring of timed entries — {e spans} (an interval
    on a (pid, tid) track: a packet's residency in an output queue, a
    link transmission, a detector's validation round), {e instants}
    (point events: a drop, a MAC check, a summary dispatch) and
    {e verdict provenance records} (a detector's accusation together
    with the entry ids of the evidence that justified it).  The verdict
    is the library's one verdict record, {!verdict}: the probe keeps
    and journals the value it records here, and {!Trace_export} parses
    it back from a trace file.

    Entries carry simulation-clock timestamps and belong to {e traces}:
    a trace id is minted per injected packet (subject to the collector's
    sampling rate) and carried hop by hop, so every entry a packet
    produced anywhere in the network shares its trace id.  Track
    conventions: {!network_pid} hosts one thread per router
    (tid = router id), {!detector_pid} one thread per detector/protocol
    (tids assigned on first use via {!thread}).

    The collector doubles as a {e flight recorder}: recording a verdict
    pins the referenced evidence entries, the verdict itself, and the
    most recent [flight] entries mentioning the implicated routers, so
    they survive ring eviction and are guaranteed to appear in an
    exported trace file no matter how much traffic follows
    ({!Trace_export}).

    Like {!Journal}, a collector is single-domain: entries are recorded
    from simulator callbacks on one domain (the underlying journal's
    writer guard enforces this). *)

type t

type id = int
(** Entry identifier, unique and monotonically increasing within a
    collector; 0 is never issued (verdicts can use it as "no entry"). *)

val network_pid : int
(** Track group for the forwarding plane: tid = router id. *)

val detector_pid : int
(** Track group for detectors and protocols: tids from {!thread}. *)

type verdict = {
  time : float;  (** seconds (sim clock) *)
  detector : string;     (** "chi" | "fatih" | "pi2" | "watchers" | ... *)
  subject : int option;  (** the router under validation, if any *)
  suspects : int list;   (** accused routers/flows (detector-specific) *)
  confidence : float option;
  alarm : bool;
  detail : string;
  evidence : id list;  (** entry ids justifying the accusation *)
}
(** A detector's verdict: the one record the probe keeps and journals
    ({!Netsim.Probe.verdict}), the collector records as provenance and
    the trace reader parses back ({!Trace_export.verdict}). *)

type kind =
  | Complete of { mutable duration : float }
      (** a span: [time .. time+duration] *)
  | Instant
  | Verdict of verdict

(** Hop-entry fields are mutable so the collector can recycle evicted
    hop records in place on the full-rate path (see {!hop_span}); hold
    no reference to an entry across further recording — read what you
    need while iterating. *)
type entry = {
  mutable id : id;
  mutable trace : int;  (** trace id; 0 = not part of a packet trace *)
  mutable name : string;
  cat : string;
  mutable pid : int;
  mutable tid : int;
  mutable time : float;  (** seconds (sim clock); start time for spans *)
  routers : int list;  (** routers this entry concerns (flight-recorder key) *)
  args : (string * Export.json) list;
  mutable hop_r1 : int;  (** inline router/packet fields used by {!hop_span} *)
  mutable hop_r2 : int;  (** in place of [routers]/[args]; [min_int] =      *)
  mutable hop_pkt : int; (** absent.  Read via {!entry_routers}/{!entry_args}. *)
  kind : kind;
}

val entry_routers : entry -> int list
(** The routers an entry concerns: [routers] or the inline hop pair. *)

val entry_args : entry -> (string * Export.json) list
(** The entry's args with any inline hop fields materialized (as
    [("pkt", ...); ("next", ...)], matching what {!span} callers used to
    pass) — what exporters must serialize. *)

val create :
  ?capacity:int -> ?flight:int -> ?sample:float -> ?seed:int -> unit -> t
(** A fresh collector.  [capacity] bounds the entry ring (default
    65536); [flight] is the per-verdict pinned-window size N — the
    newest N entries mentioning the implicated routers are preserved on
    each verdict (default 256); [sample] is the per-trace sampling
    probability in [0,1] (default 1.0), drawn deterministically from
    [seed].  Raises [Invalid_argument] on out-of-range arguments. *)

val sample_rate : t -> float

val new_trace : t -> int option
(** Mint a trace id for a newly injected packet, or [None] if the
    sampling coin says this packet goes untraced. *)

val traces_started : t -> int
(** Packets offered to {!new_trace}. *)

val traces_sampled : t -> int
(** Trace ids actually minted. *)

(* --- track naming (exported as Chrome metadata events) --- *)

val set_process : t -> pid:int -> string -> unit

val set_thread : t -> pid:int -> tid:int -> string -> unit
(** Name an explicit track, e.g. router 3 as ["r3"] on
    {!network_pid}. *)

val thread : t -> pid:int -> string -> int
(** The tid for a named track, assigned on first use (0, 1, ... per
    pid) — how detector tracks get their lanes. *)

val process_names : t -> (int * string) list
val thread_names : t -> ((int * int) * string) list

(* --- recording --- *)

val span :
  t ->
  ?trace:int ->
  name:string ->
  ?cat:string ->
  pid:int ->
  tid:int ->
  start:float ->
  finish:float ->
  ?routers:int list ->
  ?args:(string * Export.json) list ->
  unit ->
  id
(** Record a completed interval (a Chrome "X" event); a [finish] before
    [start] is clamped to a zero-duration span. *)

val hop_span :
  t ->
  trace:int ->
  name:string ->
  pid:int ->
  tid:int ->
  start:float ->
  finish:float ->
  router:int ->
  next:int ->
  pkt:int ->
  id
(** {!span} specialized for the full-rate per-hop path (cat ["hop"]):
    equivalent to [span ~routers:[router; next]
    ~args:[("pkt", Int pkt); ("next", Int next)]] but the three values
    live in inline int fields, so recording allocates one entry record
    instead of a record plus list cells — exporters see identical
    output via {!entry_routers}/{!entry_args}.  Once the ring has
    wrapped, the evicted record is recycled in place when it is itself
    an unpinned hop entry, making sustained full-rate tracing
    allocation-free per hop. *)

val instant :
  t ->
  ?trace:int ->
  name:string ->
  ?cat:string ->
  pid:int ->
  tid:int ->
  time:float ->
  ?routers:int list ->
  ?args:(string * Export.json) list ->
  unit ->
  id

val verdict : t -> verdict -> id
(** Record a verdict as a provenance entry on the detector's track and
    trip the flight recorder: the evidence entries, the newest [flight]
    entries mentioning [subject]/[suspects], and the verdict itself are
    pinned against eviction. *)

val pin_recent : t -> ?routers:int list -> unit -> int
(** Trip the flight recorder without a verdict (assertion-failure /
    crash dumps): pins the newest [flight] entries — restricted
    to the given routers if provided — and returns how many entries are
    now pinned in total. *)

(* --- reading --- *)

val entries : t -> entry list
(** The retained ring merged with the pinned flight entries,
    deduplicated by id and sorted by (time, id). *)

val find : t -> id -> entry option
(** Look up a retained or pinned entry. *)

val recorded : t -> int
(** Entries ever recorded (including evicted ones). *)

val dropped : t -> int
(** Entries evicted from the ring (pinned copies survive in the flight
    buffer regardless). *)

val pinned : t -> int
(** Entries currently held by the flight recorder. *)
