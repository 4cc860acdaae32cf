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
  mutable created : float;
  mutable trace : int;
  mutable q_start : float;
  mutable tx_start : float;
}

let initial_ttl = 64

(* Payloads carry pseudo-random bytes: on the wire nothing
   distinguishes one application's packet from another's, which
   stealth probing (§3.8) depends on. *)
let make_at ~now ~uid ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { uid; src; dst; flow; size; proto; ttl;
    payload = Crypto_sim.Fnv.hash_int uid; created = now;
    trace = 0; q_start = -1.0; tx_start = -1.0 }

let make ~sim ~src ~dst ~flow ~size ?(ttl = initial_ttl) proto =
  make_at ~now:(Sim.now sim) ~uid:(Sim.fresh_id sim) ~src ~dst ~flow ~size ~ttl proto

let clone t = { t with uid = t.uid }

(* Pool recycling: overwrite every field of a dead packet so the reused
   record is indistinguishable from a fresh [make]. *)
let reinit p ~now ~uid ~src ~dst ~flow ~size proto =
  if size <= 0 then invalid_arg "Packet.reinit: size must be positive";
  p.uid <- uid;
  p.src <- src;
  p.dst <- dst;
  p.flow <- flow;
  p.size <- size;
  p.proto <- proto;
  p.ttl <- initial_ttl;
  p.payload <- Crypto_sim.Fnv.hash_int uid;
  p.created <- now;
  p.trace <- 0;
  p.q_start <- -1.0;
  p.tx_start <- -1.0

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
