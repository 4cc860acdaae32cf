type detection = {
  time : float;
  pair : Topology.Graph.node * Topology.Graph.node;
  segment : Topology.Graph.node list;
  missing : int;
  fabricated : int;
}

(* For a 3-segment <a, x, b>, the shared collector ({!Seg_index}) holds
   s01, the traffic a forwarded into the segment (link a -> x), as its
   [sent], and s12, the traffic x forwarded onward (link x -> b), which
   is also what b truthfully reports having received, as its
   [received].  The three consensus submissions are a's view of s01 and
   x's and b's views of s12; misreporting routers substitute their own.
   Π2 also judges the pair (x, b) against last round's s12, the
   collector's [prev_received]. *)
type seg_state = {
  (* Graceful degradation under a faulty control plane: consecutive
     rounds in which the interior's consensus submission never arrived,
     and whether the segment has been written off as fail-stop. *)
  mutable mute_streak : int;
  mutable failstopped : bool;
}

type misreport = segment:Topology.Graph.node list -> pos:int -> Summary.t -> Summary.t

type t = {
  index : seg_state Seg_index.t;
  misreports : (Topology.Graph.node, misreport) Hashtbl.t;
  probe : Netsim.Probe.t option;
  ctrl : Ctrl.t option;
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

(* Round period, loss tolerance and the fewest packets a segment-round
   must carry to be judged. *)
let tau = 5.0
let thresholds = Validation.lenient ()
let min_packets = 20

let deploy ~net ~rt ?probe ?ctrl ?byz () =
  let key = Crypto_sim.Siphash.key_of_string "pi2-live" in
  let index =
    Seg_index.create ~rt ~key ~policy:Summary.Content (fun () ->
        { mute_streak = 0; failstopped = false })
  in
  let t =
    { index; misreports = Hashtbl.create 4; probe; ctrl; byz;
      detections_rev = []; rounds_degraded = 0; rounds_excused = 0; round = 0 }
  in
  let segments = Seg_index.segments index and states = Seg_index.states index in
  Netsim.Net.subscribe_iface net
    ~kinds:Netsim.Iface.(kinds [ Delivered; Drop_link_down ])
    (fun ev -> ignore (Seg_index.observe index ev));
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
        let sent = Seg_index.sent index i and received = Seg_index.received index i in
        (* An observable benign link failure on a segment edge — seen as
           drops this round, or still open at judgment time — excuses
           the whole round: the link-state flood already announced it,
           so conservation gaps are not evidence against either pair. *)
        (match seg with
        | [ _; _; _ ]
          when Summary.packets sent >= min_packets && not st.failstopped
               && (Seg_index.excused index i || Seg_index.edge_down index ~net i) ->
            t.rounds_excused <- t.rounds_excused + 1
        | [ a; x; b ]
          when Summary.packets sent >= min_packets && not st.failstopped ->
            (* The interior's consensus submission rides the (possibly
               faulty) control plane: a refusal degrades the round —
               only x's own story is missing, and silence is never
               evidence of malice. *)
            let x_submitted =
              match ctrl with
              | None -> true
              | Some ch -> (
                  let tag = Ctrl.segment_tag ~round:t.round ~salt:0x2b7e1516 seg in
                  match Ctrl.send ch ~now ~src:x ~dst:b ~tag () with
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
              let r0 = submit ~now seg ~pos:0 ~router:a sent in
              let r1 = submit ~now seg ~pos:1 ~router:x received in
              let r2 = submit ~now seg ~pos:2 ~router:b received in
              let judge ~pair ~sent ~received ~prev =
                let v = Validation.tv ~thresholds ~prev ~sent ~received () in
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
              judge ~pair:(a, x) ~sent:r0 ~received:r1
                ~prev:(Seg_index.prev_sent index i);
              judge ~pair:(x, b) ~sent:r1 ~received:r2
                ~prev:(Seg_index.prev_received index i)
            end
        | _ -> ());
        Seg_index.rotate index i)
      states;
    t.round <- t.round + 1;
    Netsim.Sim.schedule sim ~delay:tau tick
  in
  Netsim.Sim.schedule sim ~delay:tau tick;
  t
