(* An open-addressed int -> int table over non-negative keys, kept at
   most half full: keys.(j) = -1 marks a free slot. *)
type table = { mutable keys : int array; mutable vals : int array; mutable size : int }

let table count =
  let cap = ref 16 in
  while !cap < 2 * count do
    cap := 2 * !cap
  done;
  { keys = Array.make !cap (-1); vals = Array.make !cap 0; size = 0 }

(* The slot holding [k], or the free slot where it belongs. *)
let slot keys k =
  let mask = Array.length keys - 1 in
  let m = k * 0x2545F4914F6CDD1D in
  let j = ref ((m lxor (m lsr 32)) land mask) in
  while keys.(!j) >= 0 && keys.(!j) <> k do
    j := (!j + 1) land mask
  done;
  !j

let find tbl k =
  let j = slot tbl.keys k in
  if tbl.keys.(j) = k then tbl.vals.(j) else -1

let rec set tbl k v =
  let j = slot tbl.keys k in
  if tbl.keys.(j) = k then tbl.vals.(j) <- v
  else if 2 * (tbl.size + 1) > Array.length tbl.keys then begin
    let keys = tbl.keys and vals = tbl.vals in
    tbl.keys <- Array.make (2 * Array.length keys) (-1);
    tbl.vals <- Array.make (2 * Array.length keys) 0;
    tbl.size <- 0;
    Array.iteri (fun j k -> if k >= 0 then set tbl k vals.(j)) keys;
    set tbl k v
  end
  else begin
    tbl.keys.(j) <- k;
    tbl.vals.(j) <- v;
    tbl.size <- tbl.size + 1
  end

type route = { hops : int array; opens : int array; closes : int array }

type entered = Neither | Sent | Received | Both

type 'st t = {
  n : int;
  segments : Topology.Graph.node list array;
  states : 'st array;
  (* The traffic collected per segment, by segment number: flat arrays,
     so a segment's collector state costs five words. *)
  sent : Summary.t array;
  received : Summary.t array;
  prev_sent : Summary.t array;
  prev_received : Summary.t array;
  excused : bool array;
  key : Crypto_sim.Siphash.key;
  fp : Bytes.t;  (* the hop's fingerprint, hashed once for both summaries *)
  policy : Summary.policy;
  (* Every summary slot starts as [empty], one shared placeholder that is
     never written: [observe] swaps in a fresh summary on a slot's first
     observation, and [reroute] puts the placeholder back.  Sharing is
     safe because nothing else modifies a summary in place — [Byz.claim]
     works on copies — so an idle segment costs no summary at all.  Any
     other summary sits in exactly one slot; [rotate] moves it from
     [sent]/[received] to [prev_sent]/[prev_received], and once retired
     from there clears it into the segment's next round. *)
  empty : Summary.t;
  (* Segment ⟨a, m, b⟩, keyed (a * n + m) * n + b -> its number;
     consulted only when a route is filled. *)
  number : table;
  (* The segments having directed link u -> v as an edge, as a chain of
     edge entries: 2 i for segment i's first edge, 2 i + 1 for its
     second.  [links] maps u * n + v to the link's first entry and
     chain.(e) is the entry after e, -1 at the end. *)
  links : table;
  chain : int array;
  (* routes.(src).(dst): a source's row is [||] until the source's first
     packet in this routing generation, and a route [None] until first
     used. *)
  routes : route option array array;
  mutable predict : src:int -> dst:int -> Topology.Graph.node list option;
}

let create ~rt ~key ~policy make =
  let n = Topology.Graph.size (Topology.Routing.graph rt) in
  (* Segment i is the family's i-th: the order the deployments judge
     them in. *)
  let segments = Array.of_list (Topology.Segments.pik2_family rt ~k:1) in
  let count = Array.length segments in
  let number = table count in
  let links = table (Topology.Graph.link_count (Topology.Routing.graph rt)) in
  let chain = Array.make (2 * count) (-1) in
  let add_edge u v e =
    chain.(e) <- find links ((u * n) + v);
    set links ((u * n) + v) e
  in
  Array.iteri
    (fun i seg ->
      match seg with
      | [ a; m; b ] ->
          set number ((((a * n) + m) * n) + b) i;
          add_edge a m (2 * i);
          add_edge m b ((2 * i) + 1)
      | _ -> ())
    segments;
  let empty = Summary.create policy in
  { n; segments; states = Array.map (fun _ -> make ()) segments;
    sent = Array.make count empty; received = Array.make count empty;
    prev_sent = Array.make count empty; prev_received = Array.make count empty;
    excused = Array.make count false;
    key; fp = Bytes.create 8; policy; empty; number; links; chain;
    routes = Array.make n [||];
    predict = (fun ~src ~dst -> Topology.Routing.path rt ~src ~dst) }

let states t = t.states
let segments t = t.segments
let sent t i = t.sent.(i)
let received t i = t.received.(i)
let prev_sent t i = t.prev_sent.(i)
let prev_received t i = t.prev_received.(i)
let excused t i = t.excused.(i)

let fill t ~src ~dst =
  let hops =
    match t.predict ~src ~dst with Some p -> Array.of_list p | None -> [||]
  in
  let len = Array.length hops in
  let n = t.n in
  let number a m b = find t.number ((((a * n) + m) * n) + b) in
  let links = max 0 (len - 1) in
  { hops;
    opens =
      Array.init links (fun i ->
          if i + 2 < len then number hops.(i) hops.(i + 1) hops.(i + 2) else -1);
    closes =
      Array.init links (fun i ->
          if i >= 1 then number hops.(i - 1) hops.(i) hops.(i + 1) else -1) }

let route t ~src ~dst =
  if Array.length t.routes.(src) = 0 then t.routes.(src) <- Array.make t.n None;
  let row = t.routes.(src) in
  match row.(dst) with
  | Some r -> r
  | None ->
      let r = fill t ~src ~dst in
      row.(dst) <- Some r;
      r

(* Top level, so the per-hop scan builds no closure. *)
let rec scan hops u v i =
  if i + 1 >= Array.length hops then -1
  else if hops.(i) = u && hops.(i + 1) = v then i
  else scan hops u v (i + 1)

let position r ~u ~v = scan r.hops u v 0
let opens r i = if i < 0 then -1 else r.opens.(i)
let closes r i = if i < 0 then -1 else r.closes.(i)

let rec excuse t e =
  if e >= 0 then begin
    t.excused.(e / 2) <- true;
    excuse t t.chain.(e)
  end

let observe t (ev : Netsim.Net.iface_event) =
  match ev.Netsim.Net.kind with
  | Netsim.Iface.Delivered ->
      let pkt = ev.Netsim.Net.pkt in
      let r = route t ~src:pkt.Netsim.Packet.src ~dst:pkt.Netsim.Packet.dst in
      let i = position r ~u:ev.Netsim.Net.router ~v:ev.Netsim.Net.next in
      (* Link (u,v) opens the 3-segment ⟨u,v,p(i+2)⟩, where terminal
         router u records what it sent into it, and closes ⟨p(i-1),u,v⟩,
         where terminal router v records what came out. *)
      let opens = opens r i and closes = closes r i in
      if opens < 0 && closes < 0 then Neither
      else begin
        Netsim.Packet.fingerprint_into t.key pkt t.fp 0;
        let size = pkt.Netsim.Packet.size and clock = ev.Netsim.Net.clock in
        if opens >= 0 then begin
          if t.sent.(opens) == t.empty then t.sent.(opens) <- Summary.create t.policy;
          Summary.observe_at t.sent.(opens) t.fp 0 ~size ~clock
        end;
        if closes >= 0 then begin
          if t.received.(closes) == t.empty then
            t.received.(closes) <- Summary.create t.policy;
          Summary.observe_at t.received.(closes) t.fp 0 ~size ~clock
        end;
        if closes < 0 then Sent else if opens < 0 then Received else Both
      end
  | Netsim.Iface.Drop_link_down ->
      (* An observable link failure on a segment edge excuses the
         segment's round. *)
      excuse t (find t.links ((ev.Netsim.Net.router * t.n) + ev.Netsim.Net.next));
      Neither
  | _ -> Neither

let recycle t s =
  if s != t.empty then Summary.clear s;
  s

let rotate t i =
  let sent = recycle t t.prev_sent.(i) and received = recycle t t.prev_received.(i) in
  t.prev_sent.(i) <- t.sent.(i);
  t.prev_received.(i) <- t.received.(i);
  t.sent.(i) <- sent;
  t.received.(i) <- received;
  t.excused.(i) <- false

let edge_down t ~net i =
  match t.segments.(i) with
  | [ a; m; b ] ->
      not (Netsim.Net.link_up net ~src:a ~dst:m && Netsim.Net.link_up net ~src:m ~dst:b)
  | _ -> false

let reroute t pol =
  t.predict <- (fun ~src ~dst -> Topology.Policy.path pol ~src ~dst);
  Array.fill t.routes 0 (Array.length t.routes) [||];
  let clear a = Array.fill a 0 (Array.length a) t.empty in
  clear t.sent;
  clear t.received;
  clear t.prev_sent;
  clear t.prev_received;
  Array.fill t.excused 0 (Array.length t.excused) false
