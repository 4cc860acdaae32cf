(* Adapters from the live protocol deployments to {!Detector.S}.

   The chi and fatih report blocks are verbatim what the experiment
   harness used to print from its per-protocol [match] — golden tests
   compare that output byte-for-byte. *)

let segment_interior = function
  | [] | [ _ ] | [ _; _ ] -> []
  | seg -> List.filteri (fun i _ -> i > 0 && i < List.length seg - 1) seg

module Chi_adapter = struct
  type t = { attacker : int; next : int; chi : Chi.t }

  let name = "chi"
  let doc = "Protocol chi: queue replay on the attacker's busiest output queue (6.2)"

  let init (env : Detector.env) =
    (* Monitor the attacker's busiest output queue; TCP through it
       creates the congestion ambiguity χ resolves. *)
    let attacker =
      match env.Detector.attacker with
      | Some a -> a
      | None -> invalid_arg "chi: the scenario names no attacker router to monitor"
    in
    let next =
      match Topology.Graph.out_neighbors env.Detector.graph attacker with
      | n :: _ -> n
      | [] -> invalid_arg "chi: attacker has no interface"
    in
    (* Ensure monitored-queue traffic exists: a TCP through it. *)
    let upstreams =
      List.filter (fun v -> v <> next)
        (Topology.Graph.out_neighbors env.Detector.graph attacker)
    in
    (match upstreams with
    | u :: _ -> ignore (Netsim.Tcp.connect env.Detector.net ~src:u ~dst:next ())
    | [] -> ());
    let config = { Chi.default_config with Chi.tau = 2.0 } in
    let chi =
      Chi.deploy ~net:env.Detector.net ~rt:env.Detector.rt ~router:attacker ~next
        ~config ?probe:env.Detector.probe ?skew:env.Detector.skew
        ?ctrl:env.Detector.ctrl ?retry:env.Detector.retry ()
    in
    { attacker; next; chi }

  let verdicts t =
    List.map
      (fun (r : Chi.report) ->
        { Detector.time = r.Chi.end_time;
          suspects = [ t.attacker ];
          detail =
            Printf.sprintf "%d losses, c_single %.3f" (List.length r.Chi.losses)
              r.Chi.c_single_max })
      (Chi.alarms t.chi)

  let report t =
    Printf.printf "chi on queue <%d -> %d>: %d rounds, %d alarms\n" t.attacker t.next
      (List.length (Chi.reports t.chi))
      (List.length (Chi.alarms t.chi));
    List.iter
      (fun (r : Chi.report) ->
        if r.Chi.alarm then
          Printf.printf "  %.0f s  %d losses, c_single %.3f\n" r.Chi.end_time
            (List.length r.Chi.losses)
            r.Chi.c_single_max)
      (Chi.reports t.chi)
end

module Fatih_adapter = struct
  type t = Fatih.t

  let name = "fatih"
  let doc = "Fatih: the Pi k+2 (k=1) segment-monitoring prototype with response (5.3)"

  let init (env : Detector.env) =
    Fatih.deploy ~net:env.Detector.net ~rt:env.Detector.rt ?probe:env.Detector.probe
      ?ctrl:env.Detector.ctrl ?retry:env.Detector.retry ?byz:env.Detector.byz ()

  let verdicts t =
    List.map
      (fun (d : Fatih.detection) ->
        { Detector.time = d.Fatih.time;
          suspects = segment_interior d.Fatih.segment;
          detail = Printf.sprintf "%d/%d missing" d.Fatih.missing d.Fatih.sent })
      (Fatih.detections t)

  let report t =
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
end

(* Πk+2 under its paper name.  The live k = 1 deployment IS the Fatih
   prototype; registering the spelling keeps the abstract protocol
   (pik2.ml, round-level) and its packet-level instance findable under
   one registry. *)
module Pik2_adapter = struct
  include Fatih_adapter

  let name = "pik2"
  let doc = "Pi k+2 (5.2) by its paper name: the same live deployment as fatih"
end

module Pi2_adapter = struct
  type t = Pi2_live.t

  let name = "pi2"
  let doc = "Protocol Pi 2 by simulated consensus: precision-2 suspicion (5.1)"

  let init (env : Detector.env) =
    Pi2_live.deploy ~net:env.Detector.net ~rt:env.Detector.rt
      ?probe:env.Detector.probe ?ctrl:env.Detector.ctrl ?retry:env.Detector.retry
      ?byz:env.Detector.byz ()

  let verdicts t =
    List.map
      (fun (d : Pi2_live.detection) ->
        let a, b = d.Pi2_live.pair in
        { Detector.time = d.Pi2_live.time;
          suspects = [ a; b ];
          detail =
            Printf.sprintf "%d missing, %d fabricated" d.Pi2_live.missing
              d.Pi2_live.fabricated })
      (Pi2_live.detections t)

  let report t =
    let ds = Pi2_live.detections t in
    Printf.printf "pi2: %d detections, %d suspected pairs\n" (List.length ds)
      (List.length (Pi2_live.suspected_pairs t));
    List.iter
      (fun (d : Pi2_live.detection) ->
        let a, b = d.Pi2_live.pair in
        Printf.printf "  %.1f s  pair <%d,%d>  %d missing, %d fabricated\n"
          d.Pi2_live.time a b d.Pi2_live.missing d.Pi2_live.fabricated)
      ds
end

module Watchers_adapter = struct
  type t = Watchers_live.t

  let name = "watchers"
  let doc = "WATCHERS conservation-of-flow validation over NetFlow counters (3.1)"

  let init (env : Detector.env) =
    Watchers_live.deploy ~net:env.Detector.net ?probe:env.Detector.probe ()

  let verdicts t =
    List.filter_map
      (fun (v : Watchers_live.verdict) ->
        match v.Watchers_live.suspected with
        | [] -> None
        | suspects ->
            Some
              { Detector.time = v.Watchers_live.time;
                suspects;
                detail = Printf.sprintf "round %d transit deficit" v.Watchers_live.round })
      (Watchers_live.verdicts t)

  let report t =
    Printf.printf "watchers: %d rounds, %d suspected routers\n"
      (List.length (Watchers_live.verdicts t))
      (List.length (Watchers_live.suspected_routers t));
    List.iter
      (fun (v : Watchers_live.verdict) ->
        if v.Watchers_live.suspected <> [] then
          Printf.printf "  %.1f s  suspected <%s>\n" v.Watchers_live.time
            (String.concat ","
               (List.map string_of_int v.Watchers_live.suspected)))
      (Watchers_live.verdicts t)
end

module Perlman_adapter = struct
  type t = Perlman_live.t

  let name = "perlman"
  let doc = "Perlman robust delivery over f+1 disjoint paths: no detection (3.7)"

  let init (env : Detector.env) =
    let n = Topology.Graph.size env.Detector.graph in
    let p = Perlman_live.create ~net:env.Detector.net ~src:0 ~dst:(n / 2) ~f:1 in
    (* Periodic logical messages for the whole run; robustness is judged
       by sent vs delivered, not by any verdict. *)
    let sim = Netsim.Net.sim env.Detector.net in
    let period = 0.25 in
    let t = ref period in
    while !t < env.Detector.duration do
      let at = !t in
      Netsim.Sim.schedule_at sim ~time:at (fun () -> Perlman_live.send p ~size:500);
      t := !t +. period
    done;
    p

  let verdicts _ = []

  let report t =
    Printf.printf "perlman: %d sent, %d delivered, %d copies over %d disjoint paths\n"
      (Perlman_live.sent t) (Perlman_live.delivered t)
      (Perlman_live.copies_received t)
      (List.length (Perlman_live.paths t))
end

let chi : Detector.detector = (module Chi_adapter)
let fatih : Detector.detector = (module Fatih_adapter)
let pik2 : Detector.detector = (module Pik2_adapter)
let pi2 : Detector.detector = (module Pi2_adapter)
let watchers : Detector.detector = (module Watchers_adapter)
let perlman : Detector.detector = (module Perlman_adapter)

let register_all () =
  (* [Hashtbl.replace] underneath: safe to call from every entry point. *)
  List.iter Detector.register [ chi; fatih; pik2; pi2; watchers; perlman ]
