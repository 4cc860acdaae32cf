(* Tests for the core detection building blocks: summaries, the TV
   predicate, the failure-detector spec, the static-threshold baseline,
   and the WATCHERS protocol (including its §3.1 consorting flaw). *)

open Core
module Gen = Topology.Generate
module Rt = Topology.Routing

(* --- Summary --- *)

let obs s fp = Summary.observe s ~fp ~size:100 ~time:0.0

let test_summary_flow () =
  let s = Summary.create Summary.Flow in
  obs s 1L;
  obs s 2L;
  Alcotest.(check int) "packets" 2 (Summary.packets s);
  Alcotest.(check int) "bytes" 200 (Summary.bytes s);
  Alcotest.(check bool) "no identity" false (Summary.mem s 1L);
  Alcotest.(check int) "2 words" 2 (Summary.state_words s)

let test_summary_content () =
  let s = Summary.create Summary.Content in
  obs s 1L;
  obs s 2L;
  Alcotest.(check bool) "mem" true (Summary.mem s 1L);
  Alcotest.(check bool) "not mem" false (Summary.mem s 3L);
  Alcotest.(check int) "fps" 2 (List.length (Summary.fingerprints s));
  Alcotest.(check bool) "order unavailable" true
    (try
       ignore (Summary.sequence s);
       false
     with Invalid_argument _ -> true)

let test_summary_order_and_time () =
  let s = Summary.create Summary.Timeliness in
  Summary.observe s ~fp:10L ~size:50 ~time:1.0;
  Summary.observe s ~fp:20L ~size:50 ~time:2.0;
  Alcotest.(check (array int64)) "sequence" [| 10L; 20L |] (Summary.sequence s);
  Alcotest.(check (option (float 1e-9))) "time" (Some 2.0) (Summary.time_of s 20L)

let test_summary_remove_copy () =
  let s = Summary.create Summary.Content in
  obs s 1L;
  obs s 2L;
  let c = Summary.copy s in
  Summary.remove c 1L;
  Alcotest.(check bool) "copy lost it" false (Summary.mem c 1L);
  Alcotest.(check bool) "original keeps it" true (Summary.mem s 1L);
  Alcotest.(check int) "copy count" 1 (Summary.packets c)

let test_summary_state_words_ranking () =
  let mk p =
    let s = Summary.create p in
    for i = 1 to 10 do
      obs s (Int64.of_int i)
    done;
    Summary.state_words s
  in
  let flow = mk Summary.Flow
  and content = mk Summary.Content
  and time = mk Summary.Timeliness in
  Alcotest.(check bool) "flow cheapest" true (flow < content && content < time)

(* What a reader of a summary sees. *)
let contents s = (Summary.packets s, Summary.bytes s, Summary.fingerprints s)

(* The collector recycles the summaries it retires, so its lifetime rule
   is what makes holding one safe: a summary read through [sent],
   [received], [prev_sent] or [prev_received] is left alone until the
   [rotate] that retires it.  Ring8 CBR traffic, rounds of 1 s: at each
   round end the summaries read at the previous one must be unchanged,
   [rotate] must turn this round's into [prev_*], and the next round
   must collect into summaries no other slot holds. *)
let test_seg_index_lifetime () =
  let g = Gen.ring ~n:8 in
  let rt = Rt.compute g in
  let net = Netsim.Net.create ~seed:1 g in
  Netsim.Net.use_routing net rt;
  List.iter
    (fun (src, dst) ->
      ignore
        (Netsim.Flow.cbr net ~src ~dst ~rate_pps:150.0 ~size:500 ~start:0.0 ~stop:8.0))
    [ (0, 4); (4, 0); (1, 5); (2, 6); (7, 3) ];
  let index =
    Seg_index.create ~rt ~key:(Crypto_sim.Siphash.key_of_string "lifetime")
      ~policy:Summary.Content (fun () -> ())
  in
  Netsim.Net.subscribe_iface net
    ~kinds:Netsim.Iface.(kinds [ Delivered; Drop_link_down ])
    (fun ev -> ignore (Seg_index.observe index ev));
  let count = Array.length (Seg_index.segments index) in
  (* Per segment: [sent] and [received] as read at the last round end,
     with what they held then. *)
  let held = Array.make count None in
  let unchanged i when_ =
    Option.iter
      (fun ((s, s_seen), (r, r_seen)) ->
        Alcotest.(check bool)
          (Printf.sprintf "segment %d %s: last round's summaries unchanged" i when_)
          true
          (contents s = s_seen && contents r = r_seen))
      held.(i)
  in
  let recycled = ref 0 and judged = ref 0 in
  let sim = Netsim.Net.sim net in
  let rec tick () =
    for i = 0 to count - 1 do
      unchanged i "a round later";
      let sent = Seg_index.sent index i and received = Seg_index.received index i in
      let prev_sent = Seg_index.prev_sent index i
      and prev_received = Seg_index.prev_received index i in
      Option.iter
        (fun ((s, _), (r, _)) ->
          Alcotest.(check bool) (Printf.sprintf "segment %d: read back as prev_*" i) true
            (s == prev_sent && r == prev_received))
        held.(i);
      if Summary.packets sent > 0 then incr judged;
      held.(i) <- Some ((sent, contents sent), (received, contents received));
      let retired = [ (prev_sent, Summary.packets prev_sent > 0);
                      (prev_received, Summary.packets prev_received > 0) ] in
      Seg_index.rotate index i;
      unchanged i "after rotate";
      Alcotest.(check bool) (Printf.sprintf "segment %d: rotated" i) true
        (Seg_index.prev_sent index i == sent && Seg_index.prev_received index i == received);
      List.iter2
        (fun s (old, had_traffic) ->
          Alcotest.(check int) (Printf.sprintf "segment %d: next round starts empty" i) 0
            (Summary.packets s);
          if s == old && had_traffic then incr recycled)
        [ Seg_index.sent index i; Seg_index.received index i ]
        retired
    done;
    Netsim.Sim.schedule sim ~delay:1.0 tick
  in
  Netsim.Sim.schedule sim ~delay:1.0 tick;
  Netsim.Net.run ~until:9.5 net;
  Alcotest.(check bool) (Printf.sprintf "rounds judged (%d)" !judged) true (!judged > 20);
  Alcotest.(check bool)
    (Printf.sprintf "retired summaries recycled (%d)" !recycled)
    true (!recycled > 20)

(* Segment i is the k = 1 family's i-th, on a ring and on a grid: the
   numbering orders each round's judgment, and so the verdicts. *)
let test_seg_index_numbering () =
  List.iter
    (fun (name, g) ->
      let rt = Rt.compute g in
      let index =
        Seg_index.create ~rt ~key:(Crypto_sim.Siphash.key_of_string "numbering")
          ~policy:Summary.Content (fun () -> ())
      in
      Alcotest.(check (array (list int)))
        name
        (Array.of_list (Topology.Segments.pik2_family rt ~k:1))
        (Seg_index.segments index))
    [ ("ring8", Gen.ring ~n:8); ("grid4x4", Gen.grid ~rows:4 ~cols:4) ]

(* --- Validation --- *)

let summary_of fps =
  let s = Summary.create Summary.Content in
  List.iter (obs s) fps;
  s

let test_tv_equal_ok () =
  let v = Validation.tv ~sent:(summary_of [ 1L; 2L ]) ~received:(summary_of [ 2L; 1L ]) () in
  Alcotest.(check bool) "ok" true v.Validation.ok

let test_tv_detects_loss () =
  let v = Validation.tv ~sent:(summary_of [ 1L; 2L; 3L ]) ~received:(summary_of [ 1L ]) () in
  Alcotest.(check bool) "fails" false v.Validation.ok;
  Alcotest.(check int) "missing" 2 (List.length v.Validation.missing)

let test_tv_detects_fabrication () =
  let v = Validation.tv ~sent:(summary_of [ 1L ]) ~received:(summary_of [ 1L; 9L ]) () in
  Alcotest.(check bool) "fails" false v.Validation.ok;
  Alcotest.(check (list int64)) "fabricated" [ 9L ] v.Validation.fabricated

let test_tv_modification_is_loss_plus_fabrication () =
  (* A modified packet disappears under its old fingerprint and appears
     under a new one (§2.4.1 conservation of content). *)
  let v = Validation.tv ~sent:(summary_of [ 1L; 2L ]) ~received:(summary_of [ 1L; 99L ]) () in
  Alcotest.(check bool) "fails" false v.Validation.ok;
  Alcotest.(check (list int64)) "missing" [ 2L ] v.Validation.missing;
  Alcotest.(check (list int64)) "fabricated" [ 99L ] v.Validation.fabricated

let test_tv_threshold_tolerates_loss () =
  let sent = summary_of (List.init 100 (fun i -> Int64.of_int i)) in
  let received = summary_of (List.init 99 (fun i -> Int64.of_int i)) in
  let lenient = Validation.lenient () in
  let v = Validation.tv ~thresholds:lenient ~sent ~received () in
  Alcotest.(check bool) "1% within 2% budget" true v.Validation.ok;
  let v2 = Validation.tv ~sent ~received () in
  Alcotest.(check bool) "strict rejects" false v2.Validation.ok

let test_tv_flow_policy () =
  let s = Summary.create Summary.Flow and r = Summary.create Summary.Flow in
  for i = 1 to 10 do
    obs s (Int64.of_int i)
  done;
  for i = 1 to 8 do
    obs r (Int64.of_int i)
  done;
  let v = Validation.tv ~sent:s ~received:r () in
  Alcotest.(check bool) "counter mismatch" false v.Validation.ok;
  Alcotest.(check bool) "policy mismatch rejected" true
    (try
       ignore (Validation.tv ~sent:s ~received:(Summary.create Summary.Content) ());
       false
     with Invalid_argument _ -> true)

let test_tv_order () =
  let mk fps =
    let s = Summary.create Summary.Order in
    List.iter (obs s) fps;
    s
  in
  let v = Validation.tv ~sent:(mk [ 1L; 2L; 3L ]) ~received:(mk [ 3L; 2L; 1L ]) () in
  Alcotest.(check bool) "reorder detected" false v.Validation.ok;
  Alcotest.(check int) "reordered = |S| - LCS" 2 v.Validation.reordered;
  let v2 = Validation.tv ~sent:(mk [ 1L; 2L; 3L ]) ~received:(mk [ 1L; 2L; 3L ]) () in
  Alcotest.(check bool) "in order ok" true v2.Validation.ok

let test_tv_order_ignores_losses () =
  (* Reordering is measured over common packets only. *)
  let mk fps =
    let s = Summary.create Summary.Order in
    List.iter (obs s) fps;
    s
  in
  let thresholds = { (Validation.lenient ~max_loss_fraction:0.5 ()) with
                     Validation.max_reordered = 0 } in
  let v =
    Validation.tv ~thresholds ~sent:(mk [ 1L; 2L; 3L ]) ~received:(mk [ 1L; 3L ]) ()
  in
  Alcotest.(check int) "no reordering" 0 v.Validation.reordered;
  Alcotest.(check bool) "loss within budget" true v.Validation.ok

let test_tv_timeliness () =
  let mk times =
    let s = Summary.create Summary.Timeliness in
    List.iteri (fun i tm -> Summary.observe s ~fp:(Int64.of_int i) ~size:10 ~time:tm) times;
    s
  in
  let thresholds = { Validation.strict with Validation.max_delay = 0.5 } in
  let v = Validation.tv ~thresholds ~sent:(mk [ 0.0; 0.0 ]) ~received:(mk [ 0.1; 0.9 ]) () in
  Alcotest.(check bool) "delay over budget" false v.Validation.ok;
  Alcotest.(check (float 1e-9)) "max delay" 0.9 v.Validation.max_delay_seen

let test_lcs () =
  Alcotest.(check int) "identical" 3 (Validation.lcs_length [| 1L; 2L; 3L |] [| 1L; 2L; 3L |]);
  Alcotest.(check int) "reversed" 1 (Validation.lcs_length [| 1L; 2L; 3L |] [| 3L; 2L; 1L |]);
  Alcotest.(check int) "empty" 0 (Validation.lcs_length [||] [| 1L |]);
  Alcotest.(check int) "interleaved" 2 (Validation.lcs_length [| 1L; 2L; 3L |] [| 2L; 4L; 3L |])

(* --- Spec --- *)

let test_spec_accuracy () =
  let faulty r = r = 3 in
  let ok = [ { Spec.segment = [ 2; 3 ]; round = 0; by = 0 } ] in
  Alcotest.(check bool) "accurate" true (Spec.accurate ~faulty ~a:2 ok = Ok ());
  let bad = [ { Spec.segment = [ 1; 2 ]; round = 0; by = 0 } ] in
  Alcotest.(check bool) "inaccurate flagged" true (Spec.accurate ~faulty ~a:2 bad <> Ok ());
  let long = [ { Spec.segment = [ 1; 2; 3 ]; round = 0; by = 0 } ] in
  Alcotest.(check bool) "precision bound" true (Spec.accurate ~faulty ~a:2 long <> Ok ())

let test_spec_fault_cluster () =
  let g = Gen.line ~n:6 in
  let faulty r = r = 2 || r = 3 in
  let cluster = List.sort compare (Spec.fault_cluster g ~faulty 2) in
  Alcotest.(check (list int)) "cluster" [ 2; 3 ] cluster;
  Alcotest.(check (list int)) "correct router has none" []
    (Spec.fault_cluster g ~faulty 0)

let test_spec_completeness () =
  let g = Gen.line ~n:5 in
  let faulty r = r = 2 in
  let suspicions =
    List.map (fun by -> { Spec.segment = [ 1; 2 ]; round = 0; by }) [ 0; 1; 3; 4 ]
  in
  Alcotest.(check bool) "complete" true
    (Spec.complete ~graph:g ~faulty ~traffic_faulty:[ 2 ] ~correct_routers:[ 0; 1; 3; 4 ]
       suspicions
    = Ok ());
  Alcotest.(check bool) "incomplete flagged" true
    (Spec.complete ~graph:g ~faulty ~traffic_faulty:[ 2 ] ~correct_routers:[ 0; 1; 3; 4 ]
       (List.tl suspicions)
    <> Ok ())

(* --- Threshold baseline --- *)

let test_threshold_judgement () =
  let d = Threshold.create ~loss_rate:0.05 in
  Alcotest.(check bool) "under" false (Threshold.judge d ~sent:100 ~lost:5).Threshold.alarm;
  Alcotest.(check bool) "over" true (Threshold.judge d ~sent:100 ~lost:6).Threshold.alarm;
  Alcotest.(check bool) "empty round" false (Threshold.judge d ~sent:0 ~lost:0).Threshold.alarm

let test_threshold_confusion () =
  let d = Threshold.create ~loss_rate:0.05 in
  let rounds =
    [ (100, 10, true);   (* caught attack *)
      (100, 2, true);    (* subtle attack slips under *)
      (100, 8, false);   (* congestion blamed *)
      (100, 1, false) ]  (* quiet round *)
  in
  let tp, fp, fn, tn = Threshold.confusion d ~rounds in
  Alcotest.(check (list int)) "confusion" [ 1; 1; 1; 1 ] [ tp; fp; fn; tn ]

let test_threshold_validation () =
  Alcotest.check_raises "range" (Invalid_argument "Threshold.create: loss_rate outside [0,1]")
    (fun () -> ignore (Threshold.create ~loss_rate:1.5))

(* --- WATCHERS --- *)

let honest_lies _ = `Honest
let no_drops _ ~next:_ = false
let drops_from router x ~next:_ = x = router

let test_watchers_clean_network () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let c = Watchers.collect ~rt ~drops:no_drops ~lies:honest_lies () in
  Alcotest.(check int) "no detections" 0 (List.length (Watchers.detect c))

let test_watchers_honest_dropper_fails_cof () =
  (* A dropper with honest counters violates conservation of flow. *)
  let rt = Rt.compute (Gen.line ~n:5) in
  let c = Watchers.collect ~rt ~drops:(drops_from 2) ~lies:honest_lies () in
  let detections = Watchers.detect c in
  Alcotest.(check bool) "router 2 caught" true
    (List.mem (Watchers.Bad_router 2) detections)

let test_watchers_lying_dropper_fails_validation () =
  (* A dropper that inflates its sent counters disagrees with its honest
     downstream neighbour. *)
  let rt = Rt.compute (Gen.line ~n:5) in
  let lies r = if r = 2 then `Inflate_sent 3 else `Honest in
  let c = Watchers.collect ~rt ~drops:(fun r ~next -> r = 2 && next = 3) ~lies () in
  let detections = Watchers.detect c in
  Alcotest.(check bool) "link 2-3 flagged" true
    (List.mem (Watchers.Bad_link (2, 3)) detections)

let test_watchers_consorting_flaw () =
  (* §3.1: c (=2) drops and inflates; d (=3) keeps honest counters but
     stays silent.  Original WATCHERS detects nothing. *)
  let rt = Rt.compute (Gen.line ~n:6) in
  let lies r = if r = 2 then `Inflate_sent 3 else if r = 3 then `Match_upstream 2 else `Honest in
  let c = Watchers.collect ~rt ~drops:(fun r ~next -> r = 2 && next = 3) ~lies () in
  let original = Watchers.detect ~improved:false c in
  let improved = Watchers.detect ~improved:true c in
  (* With d corroborating c's inflated counter, validation passes on
     (2,3), but then d's conservation of flow fails: in claims 100%,
     out is the dropped truth. *)
  Alcotest.(check bool) "collusion shifts blame to d's CoF" true
    (List.mem (Watchers.Bad_router 3) original || original = []);
  ignore improved

let test_watchers_silent_pair_flaw_and_fix () =
  (* The exact flaw scenario: c inflates, d honest-but-silent.  The link
     counters disagree, both ends stay silent; original = blind,
     improved = bystanders detect the link. *)
  let rt = Rt.compute (Gen.line ~n:6) in
  let lies r = if r = 2 then `Inflate_sent 3 else if r = 3 then `Silent else `Honest in
  let c = Watchers.collect ~rt ~drops:(fun r ~next -> r = 2 && next = 3) ~lies () in
  let original = Watchers.detect ~improved:false c in
  let improved = Watchers.detect ~improved:true c in
  Alcotest.(check bool) "original detects nothing at all" true (original = []);
  Alcotest.(check bool) "improved catches the link" true
    (List.mem (Watchers.Bad_link (2, 3)) improved)

let test_watchers_cof_threshold () =
  let rt = Rt.compute (Gen.line ~n:5) in
  let c = Watchers.collect ~rt ~drops:(drops_from 2) ~lies:honest_lies () in
  (* A huge slack hides the CoF failure (the §6.1.1 threshold problem). *)
  let detections = Watchers.detect ~threshold:1_000_000 c in
  Alcotest.(check bool) "threshold masks" false
    (List.mem (Watchers.Bad_router 2) detections)

let test_watchers_counters_scale () =
  let g = Gen.ebone_like () in
  let counters = Watchers.counters_per_router g in
  (* 7 * degree * n; mean degree 3.70, n = 87: mean ~2253. *)
  let mean =
    float_of_int (Array.fold_left ( + ) 0 counters) /. float_of_int (Array.length counters)
  in
  Alcotest.(check bool) (Printf.sprintf "mean %.0f in range" mean) true
    (mean > 1500.0 && mean < 3500.0)

let () =
  Alcotest.run "core"
    [ ( "summary",
        [ Alcotest.test_case "flow" `Quick test_summary_flow;
          Alcotest.test_case "content" `Quick test_summary_content;
          Alcotest.test_case "order/time" `Quick test_summary_order_and_time;
          Alcotest.test_case "remove/copy" `Quick test_summary_remove_copy;
          Alcotest.test_case "state ranking" `Quick test_summary_state_words_ranking;
          Alcotest.test_case "segment summaries live until retired" `Quick
            test_seg_index_lifetime;
          Alcotest.test_case "segments numbered in family order" `Quick
            test_seg_index_numbering ] );
      ( "validation",
        [ Alcotest.test_case "equal ok" `Quick test_tv_equal_ok;
          Alcotest.test_case "loss" `Quick test_tv_detects_loss;
          Alcotest.test_case "fabrication" `Quick test_tv_detects_fabrication;
          Alcotest.test_case "modification" `Quick test_tv_modification_is_loss_plus_fabrication;
          Alcotest.test_case "threshold" `Quick test_tv_threshold_tolerates_loss;
          Alcotest.test_case "flow policy" `Quick test_tv_flow_policy;
          Alcotest.test_case "order" `Quick test_tv_order;
          Alcotest.test_case "order vs loss" `Quick test_tv_order_ignores_losses;
          Alcotest.test_case "timeliness" `Quick test_tv_timeliness;
          Alcotest.test_case "lcs" `Quick test_lcs ] );
      ( "spec",
        [ Alcotest.test_case "accuracy" `Quick test_spec_accuracy;
          Alcotest.test_case "fault cluster" `Quick test_spec_fault_cluster;
          Alcotest.test_case "completeness" `Quick test_spec_completeness ] );
      ( "threshold",
        [ Alcotest.test_case "judgement" `Quick test_threshold_judgement;
          Alcotest.test_case "confusion" `Quick test_threshold_confusion;
          Alcotest.test_case "validation" `Quick test_threshold_validation ] );
      ( "watchers",
        [ Alcotest.test_case "clean" `Quick test_watchers_clean_network;
          Alcotest.test_case "honest dropper" `Quick test_watchers_honest_dropper_fails_cof;
          Alcotest.test_case "lying dropper" `Quick test_watchers_lying_dropper_fails_validation;
          Alcotest.test_case "consorting" `Quick test_watchers_consorting_flaw;
          Alcotest.test_case "flaw and fix" `Quick test_watchers_silent_pair_flaw_and_fix;
          Alcotest.test_case "cof threshold" `Quick test_watchers_cof_threshold;
          Alcotest.test_case "counter scale" `Quick test_watchers_counters_scale ] ) ]
