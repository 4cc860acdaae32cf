type suspect = {
  router : int;
  next : int;
  first_alarm : float;
  alarm_rounds : int;
}

type t = {
  monitors : ((int * int) * Chi.t) list;
}

let deploy ~net ~rt ?(config = Chi.default_config) ?response () =
  let monitors =
    List.map
      (fun (l : Topology.Graph.link) ->
        let router = l.Topology.Graph.src and next = l.Topology.Graph.dst in
        ((router, next), Chi.deploy ~net ~rt ~router ~next ~config ()))
      (Topology.Graph.links (Netsim.Net.graph net))
  in
  (match response with
  | Some resp ->
      let last_update = ref neg_infinity in
      (* After each routing installation the neighbours re-derive their
         forwarding predictions from the new tables. *)
      Response.set_on_update resp (fun pol ->
          last_update := Netsim.Sim.now (Netsim.Net.sim net);
          List.iter
            (fun ((router, _), chi) ->
              Chi.set_predict chi (fun pkt ->
                  if pkt.Netsim.Packet.dst = router then -1
                  else
                    Topology.Policy.next_hop_id pol ~prev:(-1) ~cur:router
                      ~dst:pkt.Netsim.Packet.dst))
            monitors);
      (* Poll each monitor at its round cadence and feed fresh alarms to
         the response engine as 2-path-segments. *)
      let sim = Netsim.Net.sim net in
      let reported = Hashtbl.create 8 in
      let rec watch () =
        List.iter
          (fun ((router, next), chi) ->
            (* Ignore rounds whose window straddles a routing change:
               in-flight packets were attributed under two table
               generations (same guard as Fatih's). *)
            let fresh_alarms =
              List.filter
                (fun (r : Chi.report) ->
                  r.Chi.end_time -. config.Chi.tau > !last_update +. 1e-9
                  || r.Chi.end_time < !last_update)
                (Chi.alarms chi)
            in
            if (not (Hashtbl.mem reported (router, next))) && fresh_alarms <> [] then begin
              Hashtbl.replace reported (router, next) ();
              Response.suspect resp [ router; next ]
            end)
          monitors;
        Netsim.Sim.schedule sim ~delay:config.Chi.tau watch
      in
      Netsim.Sim.schedule sim ~delay:config.Chi.tau watch
  | None -> ());
  { monitors }

let monitors t = List.map fst t.monitors

let suspects t =
  List.filter_map
    (fun ((router, next), chi) ->
      match Chi.alarms chi with
      | [] -> None
      | alarms ->
          let first = List.hd alarms in
          Some
            { router; next; first_alarm = first.Chi.end_time;
              alarm_rounds = List.length alarms })
    t.monitors
  |> List.sort (fun a b -> compare a.first_alarm b.first_alarm)

let suspected_routers t =
  List.sort_uniq compare (List.map (fun s -> s.router) (suspects t))

let reports_for t ~router ~next = Chi.reports (List.assoc (router, next) t.monitors)
