type arrival = { fp : int64; size : int; time : float }

type t = {
  limit : int;
  bw : float;
  mutable arrivals_rev : arrival list;
  observed_out : (int64, unit) Hashtbl.t;
}

let deploy ~net ~rt ~router ~next () =
  let key = Crypto_sim.Siphash.key_of_string "replica" in
  let iface =
    match Netsim.Net.iface net ~src:router ~dst:next with
    | Some i -> i
    | None -> invalid_arg "Replica.deploy: no such link"
  in
  let t =
    { limit = Netsim.Iface.queue_limit iface;
      bw = (Netsim.Iface.link iface).Topology.Graph.bw;
      arrivals_rev = [];
      observed_out = Hashtbl.create 256 }
  in
  let arrive pkt ~(clock : Netsim.Sim.fbox) =
    t.arrivals_rev <-
      { fp = Netsim.Packet.fingerprint key pkt; size = pkt.Netsim.Packet.size;
        time = clock.f }
      :: t.arrivals_rev
  in
  (* The replica hears r's in-links and the monitored link only. *)
  Netsim.Net.subscribe_link net
    ~kinds:Netsim.Iface.(kinds [ Enqueued; Transmit_start ])
    ~src:router ~dst:next (fun ev ->
      let pkt = ev.Netsim.Net.pkt in
      match ev.Netsim.Net.kind with
      | Netsim.Iface.Enqueued when pkt.Netsim.Packet.src = router ->
          arrive pkt ~clock:ev.Netsim.Net.clock
      | Netsim.Iface.Transmit_start ->
          Hashtbl.replace t.observed_out (Netsim.Packet.fingerprint key pkt) ()
      | _ -> ());
  for u = 0 to Topology.Graph.size (Netsim.Net.graph net) - 1 do
    if Netsim.Net.iface net ~src:u ~dst:router <> None then
      Netsim.Net.subscribe_link net ~kinds:Netsim.Iface.(kinds [ Delivered ]) ~src:u
        ~dst:router (fun ev ->
          let pkt = ev.Netsim.Net.pkt in
          match ev.Netsim.Net.kind with
          | Netsim.Iface.Delivered
            when pkt.Netsim.Packet.dst <> router
                 && Topology.Routing.next_hop rt router ~dst:pkt.Netsim.Packet.dst
                    = Some next ->
              arrive pkt ~clock:ev.Netsim.Net.clock
          | _ -> ())
  done;
  t

type report = {
  arrivals : int;
  accused : int64 list;
  predicted_congestive : int;
}

let finish t =
  (* Stable sort: simultaneous arrivals keep their observation order,
     matching the router's own event order. *)
  let arrivals =
    List.stable_sort (fun a b -> compare a.time b.time) (List.rev t.arrivals_rev)
  in
  (* Exact drop-tail FIFO replay.  The real queue frees a packet's bytes
     when its transmission STARTS, so the shadow tracks service-start
     times: start_k = max(arrival_k, finish_{k-1}). *)
  let pending = Queue.create () in
  let occ = ref 0 in
  let prev_finish = ref 0.0 in
  let accused = ref [] in
  let predicted_congestive = ref 0 in
  List.iter
    (fun a ->
      (* Remove every packet whose service has started by now. *)
      let continue = ref true in
      while !continue do
        match Queue.peek_opt pending with
        | Some (start, size) when start <= a.time ->
            ignore (Queue.pop pending);
            occ := !occ - size
        | _ -> continue := false
      done;
      if !occ + a.size > t.limit then incr predicted_congestive
      else begin
        let start = Float.max a.time !prev_finish in
        prev_finish := start +. (float_of_int a.size /. t.bw);
        occ := !occ + a.size;
        Queue.push (start, a.size) pending;
        if not (Hashtbl.mem t.observed_out a.fp) then accused := a.fp :: !accused
      end)
    arrivals;
  { arrivals = List.length arrivals; accused = List.rev !accused;
    predicted_congestive = !predicted_congestive }
