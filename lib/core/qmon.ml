type entry = { fp : int64; size : int; flow : int; time : float }

type t = {
  router : int;
  next : int;
  mutable predict : Netsim.Packet.t -> int option;
  mutable pending_s : entry list;          (* newest first *)
  mutable pending_d : entry list;          (* newest first *)
  s_fps : (int64, unit) Hashtbl.t;         (* every announced arrival fp *)
  (* Arrivals the monitored interface itself discarded because the link
     was down: the failure is locally observable (the neighbours see the
     link-state flood), so these are excused, never "unexplainable". *)
  benign_fps : (int64, unit) Hashtbl.t;
  mutable benign_excused : int;
  occ_samples : (int64, int) Hashtbl.t;    (* calibration *)
  mutable calibrating : bool;
  mutable carried : entry list;            (* departures past the horizon *)
}

let router t = t.router
let next t = t.next
let benign_excused t = t.benign_excused
let set_predict t p = t.predict <- p
let set_calibrating t v = t.calibrating <- v

let predict_of_routing rt ~router pkt =
  if pkt.Netsim.Packet.dst = router then None
  else Topology.Routing.next_hop rt router ~dst:pkt.Netsim.Packet.dst

let predict_of_ecmp ecmp ~router pkt =
  if pkt.Netsim.Packet.dst = router then None
  else
    Topology.Ecmp.next_hop ecmp router ~dst:pkt.Netsim.Packet.dst
      ~flow:pkt.Netsim.Packet.flow

let attach ~net ~predict ~key ?(skew = fun ~reporter:_ -> 0.0) ~router ~next () =
  (match Netsim.Net.iface net ~src:router ~dst:next with
  | Some _ -> ()
  | None -> invalid_arg "Qmon.attach: no such link");
  let t =
    { router; next; predict; pending_s = []; pending_d = []; s_fps = Hashtbl.create 256;
      benign_fps = Hashtbl.create 16; benign_excused = 0;
      occ_samples = Hashtbl.create 64; calibrating = false; carried = [] }
  in
  let monitored_iface = Netsim.Net.iface net ~src:router ~dst:next in
  Netsim.Net.subscribe_iface net (fun ev ->
      match ev.Netsim.Net.kind with
      | Netsim.Iface.Delivered pkt
        when ev.Netsim.Net.next = router && pkt.Netsim.Packet.dst <> router ->
          (* An upstream neighbour watched this packet reach r; it enters
             Q iff r's (predictable) forwarding decision for it is
             [next]. *)
          if t.predict pkt = Some next then begin
            let fp = Netsim.Packet.fingerprint key pkt in
            Hashtbl.replace t.s_fps fp ();
            t.pending_s <-
              { fp; size = pkt.Netsim.Packet.size; flow = pkt.Netsim.Packet.flow;
                time = ev.Netsim.Net.time +. skew ~reporter:ev.Netsim.Net.router }
              :: t.pending_s
          end
      | Netsim.Iface.Transmit_start pkt
        when ev.Netsim.Net.router = router && ev.Netsim.Net.next = next ->
          (* rd infers the dequeue instant from its own arrival time. *)
          let fp = Netsim.Packet.fingerprint key pkt in
          t.pending_d <-
            { fp; size = pkt.Netsim.Packet.size; flow = pkt.Netsim.Packet.flow;
              time = ev.Netsim.Net.time }
            :: t.pending_d
      | Netsim.Iface.Enqueued pkt
        when ev.Netsim.Net.router = router && ev.Netsim.Net.next = next
             && pkt.Netsim.Packet.src = router ->
          (* Traffic the monitored router originates also occupies Q; the
             router announces it itself and is trusted for its own
             traffic (§2.1.4 fate sharing), so these entries keep the
             replayed occupancy honest. *)
          let fp = Netsim.Packet.fingerprint key pkt in
          Hashtbl.replace t.s_fps fp ();
          t.pending_s <-
            { fp; size = pkt.Netsim.Packet.size; flow = pkt.Netsim.Packet.flow;
              time = ev.Netsim.Net.time }
            :: t.pending_s
      | Netsim.Iface.Drop_link_down pkt
        when ev.Netsim.Net.router = router && ev.Netsim.Net.next = next ->
          Hashtbl.replace t.benign_fps (Netsim.Packet.fingerprint key pkt) ()
      | Netsim.Iface.Enqueued pkt
        when t.calibrating && ev.Netsim.Net.router = router && ev.Netsim.Net.next = next
        -> (
          match monitored_iface with
          | Some iface ->
              let fp = Netsim.Packet.fingerprint key pkt in
              Hashtbl.replace t.occ_samples fp
                (Netsim.Iface.occupancy iface - pkt.Netsim.Packet.size)
          | None -> ())
      | _ -> ());
  t

type round_data = {
  arrivals : entry list;
  departures : entry list;
  fabricated : int64 list;
  occupancy_samples : (int64 * int) list;
}

let by_time a b = compare (a.time, a.fp) (b.time, b.fp)

let drain t ~horizon =
  let ready_all, rest_s = List.partition (fun e -> e.time <= horizon) t.pending_s in
  (* Excuse announced arrivals the monitored interface discarded while
     its link was down — those packets never entered Q. *)
  let benign, ready_s =
    List.partition (fun e -> Hashtbl.mem t.benign_fps e.fp) ready_all
  in
  List.iter
    (fun e ->
      Hashtbl.remove t.benign_fps e.fp;
      Hashtbl.remove t.s_fps e.fp;
      t.benign_excused <- t.benign_excused + 1)
    benign;
  let ready_fps = Hashtbl.create (List.length ready_s * 2) in
  List.iter (fun e -> Hashtbl.replace ready_fps e.fp ()) ready_s;
  let matched_d, other_d =
    List.partition (fun e -> Hashtbl.mem ready_fps e.fp) t.pending_d
  in
  (* A departure at or before the horizon whose fingerprint was never
     announced by any upstream neighbour cannot be honest traffic: the
     router fabricated it. *)
  let fabricated_d, keep_d =
    List.partition
      (fun e -> e.time <= horizon && not (Hashtbl.mem t.s_fps e.fp))
      other_d
  in
  t.pending_s <- rest_s;
  t.pending_d <- keep_d;
  (* Matched fingerprints will never be referenced again. *)
  List.iter (fun e -> Hashtbl.remove t.s_fps e.fp) ready_s;
  let occupancy_samples =
    List.filter_map
      (fun e ->
        match Hashtbl.find_opt t.occ_samples e.fp with
        | Some occ ->
            Hashtbl.remove t.occ_samples e.fp;
            Some (e.fp, occ)
        | None -> None)
      ready_s
  in
  { arrivals = List.sort by_time ready_s;
    departures = List.sort by_time matched_d;
    fabricated = List.map (fun e -> e.fp) fabricated_d;
    occupancy_samples }

let replay t data ~horizon ~arrive ~depart =
  let departed = Hashtbl.create (List.length data.departures * 2) in
  List.iter (fun e -> Hashtbl.replace departed e.fp ()) data.departures;
  (* Departures beyond the horizon belong to the next replay, so the
     replayed queue carries its backlog across round boundaries. *)
  let now_d, later_d = List.partition (fun e -> e.time <= horizon) data.departures in
  let departures = List.merge (fun a b -> Float.compare a.time b.time) t.carried now_d in
  t.carried <- later_d;
  let rec walk arrivals departures =
    match (arrivals, departures) with
    | [], [] -> ()
    | a :: rest, [] ->
        arrive a ~admitted:(Hashtbl.mem departed a.fp);
        walk rest []
    | a :: rest, d :: _ when Float.compare a.time d.time <= 0 ->
        arrive a ~admitted:(Hashtbl.mem departed a.fp);
        walk rest departures
    | _, d :: rest ->
        depart d;
        walk arrivals rest
  in
  walk data.arrivals departures
