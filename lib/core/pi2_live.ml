type detection = {
  time : float;
  pair : Topology.Graph.node * Topology.Graph.node;
  segment : Topology.Graph.node list;
  missing : int;
  fabricated : int;
}

(* For a 3-segment <a, x, b>:
   - s01 is the traffic a forwarded into the segment (link a -> x);
   - s12 is the traffic x forwarded onward (link x -> b), which is also
     what b truthfully reports having received.
   The three consensus submissions are a's view of s01 and x's and b's
   views of s12; misreporting routers substitute their own. *)
type seg_state = {
  mutable s01 : Summary.t;
  mutable s12 : Summary.t;
  mutable prev_s01 : Summary.t;
  mutable prev_s12 : Summary.t;
  (* Graceful degradation under a faulty control plane: consecutive
     rounds in which the interior's consensus submission never arrived,
     and whether the segment has been written off as fail-stop. *)
  mutable mute_streak : int;
  mutable failstopped : bool;
  (* A segment edge dropped packets with its link down this round: the
     flap is announced by the link-state flood, so the missing packets
     are not evidence against either adjacent pair. *)
  mutable excused : bool;
}

type misreport = segment:Topology.Graph.node list -> pos:int -> Summary.t -> Summary.t

type t = {
  thresholds : Validation.thresholds;
  min_packets : int;
  index : seg_state Seg_index.t;
  misreports : (Topology.Graph.node, misreport) Hashtbl.t;
  probe : Netsim.Probe.t option;
  ctrl : Ctrl.t option;
  retry : Ctrl.retry option;
  byz : Byz.t option;
  mutable detections_rev : detection list;
  mutable rounds_degraded : int;
  mutable rounds_excused : int;
  mutable round : int;
}

let detections t = List.rev t.detections_rev

let suspected_pairs t =
  List.sort_uniq compare (List.map (fun d -> d.pair) (detections t))

let rounds_degraded t = t.rounds_degraded
let rounds_excused t = t.rounds_excused

let set_misreport t ~router f = Hashtbl.replace t.misreports router f

let deploy ~net ~rt ?(tau = 5.0) ?(thresholds = Validation.lenient ())
    ?(min_packets = 20) ?(key = Crypto_sim.Siphash.key_of_string "pi2-live")
    ?probe ?ctrl ?retry ?byz () =
  (* Summaries share one never-written placeholder until their first
     observation, as in {!Fatih}: misreports and Byzantine claims work on
     copies, so nothing else writes to a summary. *)
  let empty = Summary.create Summary.Content in
  let t =
    { thresholds; min_packets;
      index =
        Seg_index.create ~rt (fun () ->
            { s01 = empty; s12 = empty; prev_s01 = empty; prev_s12 = empty;
              mute_streak = 0; failstopped = false; excused = false });
      misreports = Hashtbl.create 4; probe; ctrl; retry; byz;
      detections_rev = []; rounds_degraded = 0; rounds_excused = 0; round = 0 }
  in
  let segments = Seg_index.segments t.index and states = Seg_index.states t.index in
  Netsim.Net.subscribe_iface net
    ~kinds:(Netsim.Iface.kinds [ `Delivered; `Drop_link_down ])
    (fun ev ->
      match ev.Netsim.Net.kind with
      | Netsim.Iface.Delivered pkt ->
          let u = ev.Netsim.Net.router and v = ev.Netsim.Net.next in
          let r =
            Seg_index.route t.index ~src:pkt.Netsim.Packet.src ~dst:pkt.Netsim.Packet.dst
          in
          let i = Seg_index.position r ~u ~v in
          let opens = Seg_index.opens r i and closes = Seg_index.closes r i in
          if opens >= 0 || closes >= 0 then begin
            let fp = Netsim.Packet.fingerprint key pkt in
            let size = pkt.Netsim.Packet.size and time = ev.Netsim.Net.time in
            if opens >= 0 then begin
              let st = states.(opens) in
              if st.s01 == empty then st.s01 <- Summary.create Summary.Content;
              Summary.observe st.s01 ~fp ~size ~time
            end;
            if closes >= 0 then begin
              let st = states.(closes) in
              if st.s12 == empty then st.s12 <- Summary.create Summary.Content;
              Summary.observe st.s12 ~fp ~size ~time
            end
          end
      | Netsim.Iface.Drop_link_down _ ->
          Seg_index.iter_link t.index ~src:ev.Netsim.Net.router ~dst:ev.Netsim.Net.next
            (fun st -> st.excused <- true)
      | _ -> ());
  let sim = Netsim.Net.sim net in
  let report seg ~pos ~router truth =
    match Hashtbl.find_opt t.misreports router with
    | Some f -> f ~segment:seg ~pos (Summary.copy truth)
    | None -> truth
  in
  (* What a router actually submits to consensus: its Byzantine claim
     (extras screened against their origin MACs — consensus submissions
     are signed, so a forged entry is unforgeable by construction), then
     any scripted traffic-level misreport on top.  Consensus broadcasts
     one signed summary per router, so equivocation is structurally
     impossible here: the claim is keyed on a single pseudo-peer. *)
  let submit ~now seg ~pos ~router truth =
    let claimed =
      match byz with
      | None -> truth
      | Some bz ->
          Byz.claim bz ?probe ~time:now ~claimant:router ~peer:(-1) ~segment:seg
            ~round:t.round truth
    in
    report seg ~pos ~router claimed
  in
  let rec tick () =
    let now = Netsim.Sim.now sim in
    Array.iteri
      (fun i st ->
        let seg = segments.(i) in
        (* An observable benign link failure on a segment edge — seen as
           drops this round, or still open at judgment time — excuses
           the whole round: the link-state flood already announced it,
           so conservation gaps are not evidence against either pair. *)
        let link_failed =
          match seg with
          | [ a; x; b ] ->
              not
                (Netsim.Net.link_up net ~src:a ~dst:x
                && Netsim.Net.link_up net ~src:x ~dst:b)
          | _ -> false
        in
        (match seg with
        | [ _; _; _ ]
          when Summary.packets st.s01 >= t.min_packets && not st.failstopped
               && (st.excused || link_failed) ->
            t.rounds_excused <- t.rounds_excused + 1
        | [ a; x; b ]
          when Summary.packets st.s01 >= t.min_packets && not st.failstopped ->
            (* The interior's consensus submission rides the (possibly
               faulty) control plane: a refusal degrades the round —
               only x's own story is missing, and silence is never
               evidence of malice. *)
            let x_submitted =
              match ctrl with
              | None -> true
              | Some ch -> (
                  let tag =
                    (List.fold_left (fun acc r -> (acc * 8191) + r + 1) t.round
                       seg)
                    lxor 0x2b7e1516
                  in
                  match Ctrl.send ch ?retry ~now ~src:x ~dst:b ~tag () with
                  | Ctrl.Delivered _ ->
                      st.mute_streak <- 0;
                      true
                  | Ctrl.Timed_out _ ->
                      t.rounds_degraded <- t.rounds_degraded + 1;
                      st.mute_streak <- st.mute_streak + 1;
                      false)
            in
            if not x_submitted then begin
              (match byz with Some bz -> Byz.note_mute_refusal bz | None -> ());
              if st.mute_streak >= Ctrl.mute_rounds then begin
                st.failstopped <- true;
                match probe with
                | None -> ()
                | Some probe ->
                    Netsim.Probe.record_verdict probe ~time:now ~detector:"pi2"
                      ~subject:x ~suspects:seg ~alarm:false
                      ~detail:
                        (Printf.sprintf
                           "fail-stop: consensus submission refused %d \
                            consecutive rounds — excised, not accused"
                           Ctrl.mute_rounds)
                      ()
              end
            end
            else begin
              let r0 = submit ~now seg ~pos:0 ~router:a st.s01 in
              let r1 = submit ~now seg ~pos:1 ~router:x st.s12 in
              let r2 = submit ~now seg ~pos:2 ~router:b st.s12 in
              let judge ~pair ~sent ~received ~prev =
                let v = Validation.tv ~thresholds:t.thresholds ~prev ~sent ~received () in
                if not v.Validation.ok then begin
                  let missing = List.length v.Validation.missing
                  and fabricated = List.length v.Validation.fabricated in
                  t.detections_rev <-
                    { time = now; pair; segment = seg; missing; fabricated }
                    :: t.detections_rev;
                  (* Precision 2 is α-safe by construction: a failing
                     adjacent pair always contains the router whose
                     submission broke conservation. *)
                  match probe with
                  | None -> ()
                  | Some probe ->
                      let pa, pb = pair in
                      Netsim.Probe.record_verdict probe ~time:now
                        ~detector:"pi2" ~suspects:[ pa; pb ] ~alarm:true
                        ~detail:
                          (Printf.sprintf "missing=%d fabricated=%d" missing
                             fabricated)
                        ()
                end
              in
              judge ~pair:(a, x) ~sent:r0 ~received:r1 ~prev:st.prev_s01;
              judge ~pair:(x, b) ~sent:r1 ~received:r2 ~prev:st.prev_s12
            end
        | _ -> ());
        st.prev_s01 <- st.s01;
        st.prev_s12 <- st.s12;
        st.s01 <- empty;
        st.s12 <- empty;
        st.excused <- false)
      states;
    t.round <- t.round + 1;
    Netsim.Sim.schedule sim ~delay:tau tick
  in
  Netsim.Sim.schedule sim ~delay:tau tick;
  t
