(* The detectors `mrdetect simulate` deploys by name.  Each report
   printer's output is pinned byte-for-byte by the simulate goldens. *)

type env = {
  net : Netsim.Net.t;
  rt : Topology.Routing.t;
  probe : Netsim.Probe.t option;
  ctrl : Ctrl.t option;
  byz : Byz.t option;
  skew : (reporter:int -> float) option;
  attacker : int;
  duration : float;
}

type t = { name : string; doc : string; deploy : env -> unit -> unit }

let chi env =
  (* Monitor the attacker's busiest output queue; TCP through it
     creates the congestion ambiguity χ resolves. *)
  let attacker = env.attacker in
  let neighbors = Topology.Graph.out_neighbors (Netsim.Net.graph env.net) attacker in
  let next =
    match neighbors with n :: _ -> n | [] -> invalid_arg "chi: attacker has no interface"
  in
  (* Ensure monitored-queue traffic exists: a TCP through it. *)
  (match List.filter (fun v -> v <> next) neighbors with
  | u :: _ -> ignore (Netsim.Tcp.connect env.net ~src:u ~dst:next ())
  | [] -> ());
  let config = { Chi.default_config with Chi.tau = 2.0 } in
  let chi =
    Chi.deploy ~net:env.net ~rt:env.rt ~router:attacker ~next ~config ?probe:env.probe
      ?skew:env.skew ?ctrl:env.ctrl ()
  in
  fun () ->
    Printf.printf "chi on queue <%d -> %d>: %d rounds, %d alarms\n" attacker next
      (List.length (Chi.reports chi))
      (List.length (Chi.alarms chi));
    List.iter
      (fun (r : Chi.report) ->
        if r.Chi.alarm then
          Printf.printf "  %.0f s  %d losses, c_single %.3f\n" r.Chi.end_time
            (List.length r.Chi.losses)
            r.Chi.c_single_max)
      (Chi.reports chi)

let fatih env =
  let t =
    Fatih.deploy ~net:env.net ~rt:env.rt ?probe:env.probe ?ctrl:env.ctrl ?byz:env.byz ()
  in
  fun () ->
    let ds = Fatih.detections t in
    Printf.printf "fatih: %d detections\n" (List.length ds);
    if Fatih.rounds_degraded t > 0 || Fatih.rounds_excused t > 0 then
      Printf.printf
        "fatih: %d segment-rounds degraded (exchange timeout), %d excused \
         (benign link failure)\n"
        (Fatih.rounds_degraded t) (Fatih.rounds_excused t);
    List.iter
      (fun (d : Fatih.detection) ->
        Printf.printf "  %.1f s  <%s>  %d/%d missing\n" d.Fatih.time
          (String.concat "," (List.map string_of_int d.Fatih.segment))
          d.Fatih.missing d.Fatih.sent)
      ds;
    List.iter
      (fun (u : Response.event) ->
        Printf.printf "  %.1f s  routing update (%d segments excised)\n"
          u.Response.time
          (List.length u.Response.forbidden))
      (Response.updates (Fatih.response t))

let pi2 env =
  let t =
    Pi2_live.deploy ~net:env.net ~rt:env.rt ?probe:env.probe ?ctrl:env.ctrl
      ?byz:env.byz ()
  in
  fun () ->
    let ds = Pi2_live.detections t in
    Printf.printf "pi2: %d detections, %d suspected pairs\n" (List.length ds)
      (List.length (Pi2_live.suspected_pairs t));
    List.iter
      (fun (d : Pi2_live.detection) ->
        let a, b = d.Pi2_live.pair in
        Printf.printf "  %.1f s  pair <%d,%d>  %d missing, %d fabricated\n"
          d.Pi2_live.time a b d.Pi2_live.missing d.Pi2_live.fabricated)
      ds

let watchers env =
  let t = Watchers_live.deploy ~net:env.net ?probe:env.probe () in
  fun () ->
    Printf.printf "watchers: %d rounds, %d suspected routers\n"
      (List.length (Watchers_live.verdicts t))
      (List.length (Watchers_live.suspected_routers t));
    List.iter
      (fun (v : Watchers_live.verdict) ->
        if v.Watchers_live.suspected <> [] then
          Printf.printf "  %.1f s  suspected <%s>\n" v.Watchers_live.time
            (String.concat "," (List.map string_of_int v.Watchers_live.suspected)))
      (Watchers_live.verdicts t)

let perlman env =
  let n = Topology.Graph.size (Netsim.Net.graph env.net) in
  let p = Perlman_live.create ~net:env.net ~src:0 ~dst:(n / 2) ~f:1 in
  (* Periodic logical messages for the whole run; robustness is judged
     by sent vs delivered, not by any verdict.  One send is pending at a
     time, so memory stays flat however long the run; each re-arms the
     next at the accumulated time [period +. period +. ...]. *)
  let sim = Netsim.Net.sim env.net in
  let period = 0.25 in
  let rec arm at =
    if at < env.duration then
      Netsim.Sim.schedule_at sim ~time:at (fun () ->
          Perlman_live.send p ~size:500;
          arm (at +. period))
  in
  arm period;
  fun () ->
    Printf.printf "perlman: %d sent, %d delivered, %d copies over %d disjoint paths\n"
      (Perlman_live.sent p) (Perlman_live.delivered p)
      (Perlman_live.copies_received p)
      (List.length (Perlman_live.paths p))

let all =
  [ { name = "chi"; deploy = chi;
      doc = "Protocol chi: queue replay on the attacker's busiest output queue (6.2)" };
    { name = "fatih"; deploy = fatih;
      doc = "Fatih: the Pi k+2 (k=1) segment-monitoring prototype with response (5.3)" };
    { name = "perlman"; deploy = perlman;
      doc = "Perlman robust delivery over f+1 disjoint paths: no detection (3.7)" };
    { name = "pi2"; deploy = pi2;
      doc = "Protocol Pi 2 by simulated consensus: precision-2 suspicion (5.1)" };
    (* Πk+2 under its paper name: the live k = 1 deployment IS the Fatih
       prototype. *)
    { name = "pik2"; deploy = fatih;
      doc = "Pi k+2 (5.2) by its paper name: the same live deployment as fatih" };
    { name = "watchers"; deploy = watchers;
      doc = "WATCHERS conservation-of-flow validation over NetFlow counters (3.1)" } ]

let find name = List.find_opt (fun d -> String.equal d.name name) all
