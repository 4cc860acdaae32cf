type proto =
  | Udp
  | Tcp of tcp_header
  | Ping of int
  | Pong of int

and tcp_header = { seq : int; ack : int; syn : bool; fin : bool }

type t = {
  mutable uid : int;
  mutable src : int;
  mutable dst : int;
  mutable flow : int;
  mutable size : int;
  mutable proto : proto;
  mutable ttl : int;
  mutable payload : int64;
  created : Sim.fbox;
  mutable trace : int;
  spans : spans;
}

and spans = { mutable q_start : float; mutable tx_start : float }

let initial_ttl = 64

(* Payloads carry pseudo-random bytes: on the wire nothing
   distinguishes one application's packet from another's, which
   stealth probing (§3.8) depends on. *)
let make_at ~(clock : Sim.fbox) ~uid ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { uid; src; dst; flow; size; proto; ttl;
    payload = Crypto_sim.Fnv.hash_int uid; created = { f = clock.f };
    trace = 0; spans = { q_start = -1.0; tx_start = -1.0 } }

let make ~sim ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  make_at ~clock:(Sim.clock sim) ~uid:(Sim.fresh_id sim) ~src ~dst ~flow ~size ~ttl proto

(* Both boxes are copied: a branch that shared its original's [spans]
   would close the other branch's queue and transmit windows. *)
let clone t =
  { t with created = { f = t.created.f };
    spans = { q_start = t.spans.q_start; tx_start = t.spans.tx_start } }

(* Pool recycling: overwrite every field of a dead packet so the reused
   record is indistinguishable from a fresh [make].  The times are
   stored into the packet's float-only records, so only the int64
   payload allocates. *)
let reinit p ~(clock : Sim.fbox) ~uid ~src ~dst ~flow ~size proto =
  if size <= 0 then invalid_arg "Packet.reinit: size must be positive";
  p.uid <- uid;
  p.src <- src;
  p.dst <- dst;
  p.flow <- flow;
  p.size <- size;
  p.proto <- proto;
  p.ttl <- initial_ttl;
  p.payload <- Crypto_sim.Fnv.hash_int uid;
  p.created.f <- clock.f;
  p.trace <- 0;
  p.spans.q_start <- -1.0;
  p.spans.tx_start <- -1.0

(* The fingerprinted words: uid, src, dst, flow, size, payload, then a
   protocol tag (Udp 0, Tcp 1, Ping 2, Pong 3) and its fields; Tcp's
   last word is syn * 2 + fin.  test_crypto pins this wire format. *)
let fingerprint key p =
  let h = Crypto_sim.Siphash.hash_fields in
  match p.proto with
  | Udp -> h key p.uid p.src p.dst p.flow p.size p.payload ~tail:1 0 0 0 0
  | Tcp { seq; ack; syn; fin } ->
      h key p.uid p.src p.dst p.flow p.size p.payload ~tail:4 1 seq ack
        ((if syn then 2 else 0) lor if fin then 1 else 0)
  | Ping seq -> h key p.uid p.src p.dst p.flow p.size p.payload ~tail:2 2 seq 0 0
  | Pong seq -> h key p.uid p.src p.dst p.flow p.size p.payload ~tail:2 3 seq 0 0

let is_syn p = match p.proto with Tcp h -> h.syn | Udp | Ping _ | Pong _ -> false
