type proto =
  | Udp
  | Tcp of tcp_header
  | Ping of int
  | Pong of int

and tcp_header = { seq : int; ack : int; syn : bool; fin : bool }

type body = Bytes.t

(* [body] holds the payload in bytes [0, 8) and, in bytes [8, 16), the
   last fingerprint taken, under key [fp_key]; [no_key], a key record
   no caller holds, marks it stale.  Every writer of a fingerprinted
   field is in this module and resets [fp_key] ([stale]): the type is
   private, so nothing outside can bypass it. *)
type t = {
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable size : int;
  mutable proto : proto;
  mutable ttl : int;
  body : body;
  mutable fp_key : Crypto_sim.Siphash.key;
  created : Sim.fbox;
  mutable trace : int;
  spans : spans;
}

and spans = { mutable q_start : float; mutable tx_start : float; mutable arrive : float }

let initial_ttl = 64
let no_key = Crypto_sim.Siphash.key_of_ints 0L 0L

(* Storing a pointer costs a write barrier, so a packet whose cache is
   already stale, as every packet of a run with no collector is, is
   only read. *)
let stale p = if p.fp_key != no_key then p.fp_key <- no_key

(* Payloads carry pseudo-random bytes: on the wire nothing
   distinguishes one application's packet from another's, which
   stealth probing (§3.8) depends on. *)
let make_at ~(clock : Sim.fbox) ~uid ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  let body = Bytes.create 16 in
  Crypto_sim.Fnv.hash_int_into uid body 0;
  { uid; src; dst; flow; size; proto; ttl; body; fp_key = no_key; created = { f = clock.f };
    trace = 0; spans = { q_start = -1.0; tx_start = -1.0; arrive = -1.0 } }

let make ~sim ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  make_at ~clock:(Sim.clock sim) ~uid:(Sim.fresh_id sim) ~src ~dst ~flow ~size ~ttl proto

(* Every box is copied: a branch that shared its original's [spans]
   would close the other branch's queue and transmit windows, and one
   that shared its [body] would carry the other branch's modification.
   The cached fingerprint comes along: the copy has the same content. *)
let clone t =
  { t with body = Bytes.copy t.body; created = { f = t.created.f };
    spans =
      { q_start = t.spans.q_start; tx_start = t.spans.tx_start; arrive = t.spans.arrive } }

(* Pool recycling: overwrite every field of a dead packet so the reused
   record is indistinguishable from a fresh [make].  The payload is
   hashed into the packet's own bytes and the times are stored into its
   float-only records, so nothing allocates. *)
let reinit p ~(clock : Sim.fbox) ~uid ~src ~dst ~flow ~size proto =
  if size <= 0 then invalid_arg "Packet.reinit: size must be positive";
  p.uid <- uid;
  p.src <- src;
  p.dst <- dst;
  p.flow <- flow;
  p.size <- size;
  p.proto <- proto;
  p.ttl <- initial_ttl;
  Crypto_sim.Fnv.hash_int_into uid p.body 0;
  stale p;
  p.created.f <- clock.f;
  p.trace <- 0;
  p.spans.q_start <- -1.0;
  p.spans.tx_start <- -1.0;
  p.spans.arrive <- -1.0

let set_ttl p ttl = p.ttl <- ttl
let set_trace p trace = p.trace <- trace

(* The pool's stamp on a released packet: a sentinel uid, no size, no
   TTL. *)
let poison p ~uid =
  p.uid <- uid;
  p.size <- 0;
  p.ttl <- 0;
  stale p

let payload p = Bytes.get_int64_le p.body 0

let set_payload p w =
  Bytes.set_int64_le p.body 0 w;
  stale p

let xor_payload p mask =
  Bytes.set_int64_le p.body 0 (Int64.logxor (Bytes.get_int64_le p.body 0) mask);
  stale p

(* The fingerprinted words: uid, src, dst, flow, size, payload, then a
   protocol tag (Udp 0, Tcp 1, Ping 2, Pong 3) and its fields; Tcp's
   last word is syn * 2 + fin.  test_crypto pins this wire format.  The
   payload is hashed where it lies; with [out] empty the fingerprint is
   returned, otherwise written at [off] of [out]. *)
let digest key p out off =
  let h = Crypto_sim.Siphash.hash_fields in
  match p.proto with
  | Udp -> h key p.uid p.src p.dst p.flow p.size p.body 0 ~tail:1 0 0 0 0 out off
  | Tcp { seq; ack; syn; fin } ->
      h key p.uid p.src p.dst p.flow p.size p.body 0 ~tail:4 1 seq ack
        ((if syn then 2 else 0) lor if fin then 1 else 0)
        out off
  | Ping seq -> h key p.uid p.src p.dst p.flow p.size p.body 0 ~tail:2 2 seq 0 0 out off
  | Pong seq -> h key p.uid p.src p.dst p.flow p.size p.body 0 ~tail:2 3 seq 0 0 out off

(* A packet crosses several collectors' links under one key, so the
   digest is taken once per (content, key) and kept in [body]. *)
let cache key p =
  if p.fp_key != key then begin
    ignore (digest key p p.body 8 : int64);
    p.fp_key <- key
  end

let fingerprint key p =
  cache key p;
  Bytes.get_int64_ne p.body 8

let fingerprint_into key p out off =
  if off < 0 || off > Bytes.length out - 8 then invalid_arg "Packet.fingerprint_into";
  cache key p;
  Bytes.set_int64_ne out off (Bytes.get_int64_ne p.body 8)

let is_syn p = match p.proto with Tcp h -> h.syn | Udp | Ping _ | Pong _ -> false
