type exchange = Full_sets | Reconcile

type config = {
  thresholds : Validation.thresholds;
  policy : Summary.policy;
  exchange : exchange;
}

let default_config =
  { thresholds = Validation.lenient (); policy = Summary.Content;
    exchange = Full_sets }

(* The validation round, seconds. *)
let tau = 5.0

(* Segments with less traffic in a round are not judged. *)
let min_packets = 20

type detection = {
  time : float;
  segment : Topology.Graph.node list;
  detected_by : Topology.Graph.node * Topology.Graph.node;
  missing : int;
  fabricated : int;
  reordered : int;
  max_delay : float;
  sent : int;
}

(* A segment's traffic lives in the shared collector ({!Seg_index});
   Fatih keeps only its streaks.  Consecutive summary-exchange timeouts /
   interior-heartbeat timeouts: either streak reaching [Ctrl.mute_rounds]
   judges the silent party fail-stop — excised from routing, never
   accused. *)
type seg_state = {
  mutable degraded_streak : int;
  mutable mute_streak : int;
  mutable failstopped : bool;
}

type t = {
  config : config;
  response : Response.t;
  index : seg_state Seg_index.t;
  mutable detections_rev : detection list;
  (* Time of the last routing installation: validation windows that
     overlap it see in-flight packets attributed under two different
     table generations, so only windows that started strictly after it
     are judged. *)
  mutable last_policy_change : float;
  (* §5.3.2 component overhead: fingerprints computed and summary words
     exchanged across all monitored segments. *)
  mutable fingerprints_observed : int;
  mutable words_exchanged : int;
  mutable round : int;
  (* Graceful degradation bookkeeping: segment-rounds skipped because
     the summary exchange timed out (state carried to the next round)
     and segment-rounds excused for an observable benign link failure. *)
  mutable rounds_degraded : int;
  mutable rounds_excused : int;
}

let detections t = List.rev t.detections_rev
let response t = t.response
let monitored_segments t =
  Array.fold_left (fun acc seg -> seg :: acc) [] (Seg_index.segments t.index)

let deploy ~net ~rt ?(config = default_config) ?probe ?ctrl ?byz () =
  let key = Crypto_sim.Siphash.key_of_string "fatih" in
  (* Flow summaries keep no packet identities: TV could only judge their
     counters, which count the packets straddling a round boundary and
     would accuse honest routers. *)
  if config.policy = Summary.Flow then
    invalid_arg "Fatih.deploy: the Flow policy keeps no packet identities";
  let t =
    { config; response = Response.create ~net ?probe ();
      index =
        Seg_index.create ~rt ~key ~policy:config.policy (fun () ->
            { degraded_streak = 0; mute_streak = 0; failstopped = false });
      detections_rev = []; last_policy_change = neg_infinity;
      fingerprints_observed = 0; words_exchanged = 0; round = 0;
      rounds_degraded = 0; rounds_excused = 0 }
  in
  let segments = Seg_index.segments t.index and states = Seg_index.states t.index in
  (* Predicted paths decide which monitored segments a packet belongs to
     (§4.1 predictability).  After a routing update the coordinator
     re-derives the predictions from the freshly installed tables
     (§5.3.1). *)
  Response.set_on_update t.response (fun pol ->
      t.last_policy_change <- Netsim.Sim.now (Netsim.Net.sim net);
      Seg_index.reroute t.index pol);
  (* With a Byzantine plan armed, the interior router of a closed
     segment also fingerprints its own egress: the third claim the
     corroboration quorum compares against the terminals' stories.  It
     is the very traffic the closing terminal receives, so the claim is
     built from [received]; only the MAC work is counted twice. *)
  let closing = if Option.is_some byz then 2 else 1 in
  Netsim.Net.subscribe_iface net
    ~kinds:Netsim.Iface.(kinds [ Delivered; Drop_link_down ])
    (fun ev ->
      let observed =
        match Seg_index.observe t.index ev with
        | Seg_index.Neither -> 0
        | Seg_index.Sent -> 1
        | Seg_index.Received -> closing
        | Seg_index.Both -> 1 + closing
      in
      if observed > 0 then begin
        t.fingerprints_observed <- t.fingerprints_observed + observed;
        (* One MAC-compute instant per traced hop, however many segment
           summaries the fingerprint landed in. *)
        let pkt = ev.Netsim.Net.pkt in
        match ev.Netsim.Net.kind with
        | Netsim.Iface.Delivered when pkt.Netsim.Packet.trace <> 0 ->
            Option.iter
              (fun probe ->
                ignore
                  (Netsim.Probe.trace_instant probe ~track:"fatih"
                     ~name:"fingerprint" ~cat:"mac" ~time:ev.Netsim.Net.clock.Netsim.Sim.f
                     ~routers:[ ev.Netsim.Net.router; ev.Netsim.Net.next ]
                     ~args:
                       [ ("pkt", Telemetry.Export.Int pkt.Netsim.Packet.uid);
                         ("summaries", Telemetry.Export.Int observed) ]
                     ()))
              probe
        | _ -> ()
      end);
  let sim = Netsim.Net.sim net in
  let rec tick () =
    let now = Netsim.Sim.now sim in
    let judged = ref 0 in
    let detected = ref 0 in
    Array.iteri
      (fun i st ->
        let seg = segments.(i) in
        let a_end, m_int, b_end =
          match seg with [ a; m; b ] -> (a, m, b) | _ -> assert false
        in
        let sent = Seg_index.sent t.index i
        and received = Seg_index.received t.index i in
        let eligible =
          now -. tau > t.last_policy_change +. 1e-9
          && Summary.packets sent >= min_packets
        in
        (* A segment edge still down at judgment time is an announced
           fail-stop: the round is judged normally so the dead segment
           is detected and excised from routing, but the verdict is not
           an accusation — the link-state flood already told everyone.
           Only a judged round asks. *)
        let link_failed = eligible && Seg_index.edge_down t.index ~net i in
        let excused = Seg_index.excused t.index i && not link_failed in
        (* An observable benign link failure on a segment edge — already
           healed by judgment time — excuses the whole round: the
           terminals learn of the flap from the link-state flood, so the
           missing packets are not evidence against the interior
           router. *)
        if eligible && excused then begin
          t.rounds_excused <- t.rounds_excused + 1;
          match probe with
          | Some probe ->
              ignore
                (Netsim.Probe.trace_instant probe ~track:"fatih"
                   ~name:"benign-excuse" ~cat:"degraded" ~time:now ~routers:seg
                   ())
          | None -> ()
        end;
        (* The summary exchange rides the lossy control plane: an
           exhausted retry budget degrades the round — the summaries
           carry over and the comparison happens next round over the
           union — rather than wedging the round or accusing anyone. *)
        let exchange =
          if (not eligible) || excused then `Skip
          else
            match ctrl with
            | None -> `Ok 1
            | Some ch -> (
                let tag = Ctrl.segment_tag ~round:t.round ~salt:0 seg in
                match Ctrl.send ch ~now ~src:a_end ~dst:b_end ~tag () with
                | Ctrl.Delivered { attempts; _ } -> `Ok attempts
                | Ctrl.Timed_out { attempts; waited } ->
                    `Degraded (attempts, waited))
        in
        (* Interior-participation heartbeat: with a Byzantine plan armed
           the terminals expect the interior router to answer on the
           control plane every judged round.  A refusal leaves the round
           uncorroborated (degraded, not accusatory); a persistent
           streak is judged fail-stop below. *)
        let m_reachable =
          match (byz, ctrl, exchange) with
          | Some bz, Some ch, `Ok _ when Byz.hardened bz -> (
              let tag = Ctrl.segment_tag ~round:t.round ~salt:0x68e31da4 seg in
              match Ctrl.send ch ~now ~src:m_int ~dst:a_end ~tag () with
              | Ctrl.Delivered _ ->
                  st.mute_streak <- 0;
                  true
              | Ctrl.Timed_out _ ->
                  st.mute_streak <- st.mute_streak + 1;
                  false)
          | _ -> true
        in
        (match exchange with
        | `Ok _ -> st.degraded_streak <- 0
        | `Degraded _ -> st.degraded_streak <- st.degraded_streak + 1
        | `Skip -> ());
        (* Every retransmission ships the summary again, whether or not
           the exchange finally got through. *)
        (match exchange with
        | `Ok attempts | `Degraded (attempts, _) ->
            t.words_exchanged <-
              t.words_exchanged + ((attempts - 1) * Summary.state_words sent)
        | `Skip -> ());
        (* Persistent silence is fail-stop, not malice: after
           [Ctrl.mute_rounds] consecutive refusals the segment is excised
           from routing with a non-alarming verdict — the α-accuracy
           bar forbids convicting a router for being unreachable. *)
        (if (match byz with Some bz -> Byz.hardened bz | None -> false)
            && not st.failstopped
            && (st.degraded_streak >= Ctrl.mute_rounds
               || st.mute_streak >= Ctrl.mute_rounds) then begin
           st.failstopped <- true;
           let mute = st.mute_streak >= Ctrl.mute_rounds in
           (match probe with
           | Some probe ->
               Netsim.Probe.record_verdict probe ~time:now ~detector:"fatih"
                 ?subject:(if mute then Some m_int else None)
                 ~suspects:seg ~alarm:false
                 ~detail:
                   (Printf.sprintf
                      "fail-stop: %s %d consecutive rounds — excised, not accused"
                      (if mute then "interior heartbeat refused"
                       else "summary exchange timed out")
                      Ctrl.mute_rounds)
                 ()
           | None -> ());
           Response.suspect t.response seg
         end);
        (match exchange with
        | `Skip -> ()
        | `Degraded (attempts, waited) -> (
            t.rounds_degraded <- t.rounds_degraded + 1;
            match probe with
            | Some probe ->
                ignore
                  (Netsim.Probe.trace_instant probe ~track:"fatih"
                     ~name:"exchange-timeout" ~cat:"degraded" ~time:now
                     ~routers:seg
                     ~args:
                       [ ("attempts", Telemetry.Export.Int attempts);
                         ("waited", Telemetry.Export.Float waited) ]
                     ())
            | None -> ())
        | `Ok _ ->
          incr judged;
          (* The terminal routers ship this round's summaries for
             comparison — the dispatch is part of a verdict's evidence. *)
          let dispatch =
            match probe with
            | None -> None
            | Some probe ->
                Netsim.Probe.trace_instant probe ~track:"fatih"
                  ~name:"summary-dispatch" ~cat:"summary" ~time:now ~routers:seg
                  ~args:
                    [ ("sent", Telemetry.Export.Int (Summary.packets sent));
                      ("received",
                       Telemetry.Export.Int (Summary.packets received)) ]
                  ()
          in
          (* With a Byzantine plan armed, validation runs on what the
             terminals *claim* — their summaries plus any asserted
             extras, each screened against its origin MAC first.  A
             hardened verifier therefore never even sees a forged
             entry; the unhardened baseline folds them in and measures
             the damage. *)
          let claim ~claimant ~peer truth =
            match byz with
            | None -> truth
            | Some bz ->
                Byz.claim bz ?probe ~time:now ~claimant ~peer ~segment:seg
                  ~round:t.round truth
          in
          let s_claim = claim ~claimant:a_end ~peer:b_end sent in
          let r_claim = claim ~claimant:b_end ~peer:a_end received in
          let prev = Seg_index.prev_sent t.index i in
          let tv ~sent ~received =
            Validation.tv ~thresholds:config.thresholds ~prev ~sent ~received ()
          in
          let v = tv ~sent:s_claim ~received:r_claim in
          let missing = List.length v.Validation.missing
          and fabricated = List.length v.Validation.fabricated in
          let sent_n = Summary.packets s_claim in
          let verdict ?subject ?(evidence = Option.to_list dispatch)
              ~suspects ~alarm ~detail () =
            match probe with
            | None -> ()
            | Some probe ->
                Netsim.Probe.record_verdict probe ~time:now ~detector:"fatih"
                  ?subject ~suspects ~alarm ~detail ~evidence ()
          in
          let counts =
            Printf.sprintf "missing=%d/%d fabricated=%d" missing sent_n fabricated
          in
          (* The interior router's own forwarded-claim, requested over
             the control plane each judged round when the hardened
             protocol is armed: the third leg of the corroboration
             quorum, and the surface on which an equivocating interior
             is caught. *)
          let interior_claims =
            match byz with
            | Some bz when Byz.hardened bz && m_reachable && not st.failstopped
              ->
                let m_to_a = claim ~claimant:m_int ~peer:a_end received in
                let m_to_b = claim ~claimant:m_int ~peer:b_end received in
                Some (bz, m_to_a, m_to_b)
            | _ -> None
          in
          let equivocated =
            match interior_claims with
            | Some (bz, m_to_a, m_to_b)
              when Byz.digest m_to_a <> Byz.digest m_to_b ->
                (* The interior told each terminal a different story
                   about the same round: only a faulty router
                   equivocates, so this conviction is α-safe — and it
                   needs no threshold trigger, because lying on the
                   control plane leaves the data plane clean. *)
                Byz.note_equivocation bz;
                verdict ~subject:m_int ~suspects:seg ~alarm:true
                  ~detail:
                    (counts
                    ^ Printf.sprintf
                        " equivocation: digests to %d and %d disagree" a_end
                        b_end)
                  ();
                Response.suspect t.response seg;
                true
            | _ -> false
          in
          if (not equivocated) && not v.Validation.ok then begin
            incr detected;
            t.detections_rev <-
              { time = now; segment = seg; detected_by = (a_end, b_end); missing;
                fabricated;
                reordered = v.Validation.reordered;
                max_delay = v.Validation.max_delay_seen; sent = sent_n }
              :: t.detections_rev;
            let mismatch_ev =
              match probe with
              | None -> None
              | Some probe ->
                  Netsim.Probe.trace_instant probe ~track:"fatih"
                    ~name:"summary-mismatch" ~cat:"evidence" ~time:now
                    ~routers:seg
                    ~args:
                      [ ("missing", Telemetry.Export.Int missing);
                        ("fabricated", Telemetry.Export.Int fabricated);
                        ("reordered", Telemetry.Export.Int
                           v.Validation.reordered);
                        ("max_delay", Telemetry.Export.Float
                           v.Validation.max_delay_seen);
                        ("sent", Telemetry.Export.Int sent_n) ]
                    ()
            in
            let verdict ?subject ~suspects ~alarm ~detail () =
              verdict ?subject
                ~evidence:
                  (Option.to_list dispatch @ Option.to_list mismatch_ev)
                ~suspects ~alarm ~detail ()
            in
            (match byz with
            | None ->
                (* The accused is the segment's interior router: the two
                   ends are the detecting terminals. *)
                verdict ~subject:m_int ~suspects:seg ~alarm:(not link_failed)
                  ~detail:
                    (counts ^ if link_failed then " link-failure" else "")
                  ();
                Response.suspect t.response seg
            | Some _ when link_failed ->
                verdict ~subject:m_int ~suspects:seg ~alarm:false
                  ~detail:(counts ^ " link-failure") ();
                Response.suspect t.response seg
            | Some bz when not (Byz.hardened bz) ->
                (* The unhardened baseline folds the forged claims in
                   and judges them exactly like the classic protocol:
                   the interior router is convicted by name on its
                   terminals' say-so — the framing damage the hardened
                   path exists to prevent. *)
                Byz.note_dispute bz;
                verdict ~subject:m_int ~suspects:seg ~alarm:true
                  ~detail:counts ();
                Response.suspect t.response seg
            | Some bz ->
                (* Participants disagree: corroborate before alarming.
                   The interior router's own forwarded-claim is the
                   third leg of a conservation quorum — whichever half
                   of the segment the three stories cannot account for
                   names a pair that provably contains a faulty router,
                   so no honest router is ever convicted alone. *)
                Byz.note_dispute bz;
                (match interior_claims with
                | None ->
                    if not m_reachable then begin
                      Byz.note_mute_refusal bz;
                      verdict ~suspects:seg ~alarm:false
                        ~detail:
                          (counts
                          ^ " uncorroborated: interior refused the heartbeat \
                             — degraded, not accusing")
                        ()
                    end
                    else
                      verdict ~suspects:seg ~alarm:false
                        ~detail:
                          (counts
                          ^ " uncorroborated mismatch — degraded, not \
                             accusing")
                        ()
                | Some (_, m_to_a, m_to_b) ->
                    let conserved ~sent ~received =
                      (tv ~sent ~received).Validation.conserved
                    in
                    match
                      ( conserved ~sent:s_claim ~received:m_to_a,
                        conserved ~sent:m_to_b ~received:r_claim )
                    with
                    | false, true ->
                        verdict ~suspects:[ a_end; m_int ] ~alarm:true
                          ~detail:
                            (counts
                            ^ Printf.sprintf
                                " corroborated: conservation broken between \
                                 %d and %d" a_end m_int)
                          ();
                        Response.suspect t.response seg
                    | true, false ->
                        verdict ~suspects:[ m_int; b_end ] ~alarm:true
                          ~detail:
                            (counts
                            ^ Printf.sprintf
                                " corroborated: conservation broken between \
                                 %d and %d" m_int b_end)
                          ();
                        Response.suspect t.response seg
                    | false, false ->
                        verdict ~suspects:seg ~alarm:true
                          ~detail:
                            (counts
                            ^ " corroborated: interior consistent with \
                               neither terminal")
                          ();
                        Response.suspect t.response seg
                    | true, true ->
                        (* Neither half of the segment individually
                           exceeds the thresholds: the disagreement does
                           not survive corroboration, so degrade
                           gracefully instead of accusing. *)
                        verdict ~suspects:seg ~alarm:false
                          ~detail:
                            (counts
                            ^ " uncorroborated mismatch — degraded, not \
                               accusing")
                          ()))
          end);
        (match config.exchange with
        | Full_sets ->
            t.words_exchanged <-
              t.words_exchanged + Summary.state_words sent
              + Summary.state_words received
        | Reconcile ->
            (* Appendix A in the loop: each end ships characteristic-
               polynomial evaluations instead of its fingerprint set; the
               cost is O(losses), falling back to the full set when the
               difference overwhelms the bound. *)
            if Summary.packets sent >= min_packets then begin
              let elements s =
                Array.of_list
                  (List.map Setrecon.Reconcile.element_of_fingerprint
                     (Summary.fingerprints s))
              in
              match
                Setrecon.Reconcile.diff ~max_bound:512 ~a:(elements sent)
                  ~b:(elements received) ()
              with
              | Some r ->
                  t.words_exchanged <-
                    t.words_exchanged + (2 * r.Setrecon.Reconcile.evals_used) + 4
              | None ->
                  t.words_exchanged <-
                    t.words_exchanged + Summary.state_words sent
                    + Summary.state_words received
            end);
        match exchange with
        | `Degraded _ -> () (* carry state: compare the union next round *)
        | `Skip | `Ok _ -> Seg_index.rotate t.index i)
      states;
    (match probe with
    | Some probe ->
        ignore
          (Netsim.Probe.trace_span probe ~track:"fatih"
             ~name:(Printf.sprintf "fatih round %d" t.round)
             ~cat:"round"
             ~start:(Float.max 0.0 (now -. tau))
             ~finish:now
             ~args:
               [ ("segments", Telemetry.Export.Int (Array.length states));
                 ("judged", Telemetry.Export.Int !judged);
                 ("detections", Telemetry.Export.Int !detected) ]
             ())
    | None -> ());
    t.round <- t.round + 1;
    Netsim.Sim.schedule sim ~delay:tau tick
  in
  Netsim.Sim.schedule sim ~delay:tau tick;
  t

let fingerprints_observed t = t.fingerprints_observed
let words_exchanged t = t.words_exchanged
let rounds_degraded t = t.rounds_degraded
let rounds_excused t = t.rounds_excused
