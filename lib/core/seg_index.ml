module Keys = Hashtbl.Make (Int)

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
  number : int Keys.t;
  (* Directed link u -> v, keyed u * n + v -> numbers of the segments
     having it as an edge. *)
  links : int list Keys.t;
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
  let number = Keys.create (Array.length segments) and links = Keys.create 256 in
  let add_link a b i =
    let link = (a * n) + b in
    Keys.replace links link (i :: Option.value (Keys.find_opt links link) ~default:[])
  in
  Array.iteri
    (fun i seg ->
      match seg with
      | [ a; m; b ] ->
          Keys.replace number ((((a * n) + m) * n) + b) i;
          add_link a m i;
          add_link m b i
      | _ -> ())
    segments;
  let empty = Summary.create policy in
  let count = Array.length segments in
  { n; segments; states = Array.map (fun _ -> make ()) segments;
    sent = Array.make count empty; received = Array.make count empty;
    prev_sent = Array.make count empty; prev_received = Array.make count empty;
    excused = Array.make count false;
    key; fp = Bytes.create 8; policy; empty; number; links;
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
  let number a m b =
    match Keys.find_opt t.number ((((a * n) + m) * n) + b) with Some i -> i | None -> -1
  in
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

let rec excuse excused = function
  | [] -> ()
  | i :: rest ->
      excused.(i) <- true;
      excuse excused rest

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
      let link = (ev.Netsim.Net.router * t.n) + ev.Netsim.Net.next in
      (match Keys.find_opt t.links link with
      | Some segs -> excuse t.excused segs
      | None -> ());
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
