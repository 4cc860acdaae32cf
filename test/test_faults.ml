(* The fault-injection subsystem and the protocols' hardening against
   it: schedule text round-trips, chaos generation under a budget, the
   lossy control channel's replay determinism, the injector's link/crash
   refcounting, fatih's graceful degradation, the adversary-builder
   combinators, and — the golden property — injected benign churn
   producing zero false accusations from chi and fatih on ring8, scored
   by the ground-truth oracle.  A fuzzer checks that byte-edited fault
   plans and metrics documents parse to Ok or Error, never an
   exception. *)

open Netsim
module Schedule = Faults.Schedule
module Chaos = Faults.Chaos
module Injector = Faults.Injector
module Oracle = Faults.Oracle
module Ctrl = Core.Ctrl
module Rob = Experiments.Fig_robustness

(* --- schedules: text form --- *)

let rich_schedule =
  { Schedule.seed = 42;
    actions =
      [ Schedule.Link_down { src = 0; dst = 1; at = 3.0 };
        Schedule.Link_up { src = 0; dst = 1; at = 6.25 };
        Schedule.Crash { router = 3; at = 10.0 };
        Schedule.Restart { router = 3; at = 15.5 };
        Schedule.Msg_loss { src = 0; dst = 1; prob = 0.2 };
        Schedule.Msg_dup { src = 1; dst = 2; prob = 0.05 };
        Schedule.Msg_reorder { src = 2; dst = 3; prob = 0.1; delay = 0.05 };
        Schedule.Clock_skew { router = 2; skew = -0.004 } ] }

let test_roundtrip () =
  let s = rich_schedule in
  (match Schedule.of_string (Schedule.to_string s) with
  | Ok s' -> Alcotest.(check bool) "of_string inverts to_string" true (s = s')
  | Error e -> Alcotest.failf "canonical form does not parse: %s" e);
  (* Awkward but exact floats survive the round trip too. *)
  let odd =
    { Schedule.seed = 7;
      actions = [ Schedule.Clock_skew { router = 0; skew = 0.1 +. 0.2 } ] }
  in
  match Schedule.of_string (Schedule.to_string odd) with
  | Ok s' -> Alcotest.(check bool) "float-exact round trip" true (odd = s')
  | Error e -> Alcotest.failf "float form does not parse: %s" e

let test_parse_comments () =
  let text =
    "# a churn plan\n(seed 5)\n\n  # indented comment\n(crash 2 at 4) # trailing\n"
  in
  match Schedule.of_string text with
  | Ok s ->
      Alcotest.(check int) "seed" 5 s.Schedule.seed;
      Alcotest.(check bool) "one action" true
        (s.Schedule.actions = [ Schedule.Crash { router = 2; at = 4.0 } ])
  | Error e -> Alcotest.failf "commented schedule rejected: %s" e

let expect_error name text fragment =
  match Schedule.of_string text with
  | Ok _ -> Alcotest.failf "%s: bogus schedule accepted" name
  | Error e ->
      let contains hay needle =
        let lh = String.length hay and ln = String.length needle in
        let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: error %S mentions %S" name e fragment)
        true (contains e fragment)

let test_parse_errors () =
  expect_error "missing field" "(seed 1)\n(link-down 0 at 3)" "line 2";
  expect_error "unknown form" "(frobnicate 1 2)" "line 1";
  expect_error "bad number" "(crash x at 3)" "line 1";
  expect_error "unterminated" "(crash 1 at 3" "line 1"

(* Parse errors must cite the offending atom and its exact position,
   not just a line: these pin the full rendered message, column
   included, so a tokenizer regression cannot silently shift blame to
   the wrong atom. *)
let test_parse_positions () =
  let expect_exact name text error =
    match Schedule.of_string text with
    | Ok _ -> Alcotest.failf "%s: bogus schedule accepted" name
    | Error e -> Alcotest.(check string) name error e
  in
  expect_exact "bad integer atom, second line"
    "(seed 1)\n(crash x at 3)"
    "line 2, column 8: router: expected an integer, got \"x\"";
  expect_exact "bad integer atom deep in a byz form"
    "(byz-frame 1 victim 2 extras nope)"
    "line 1, column 30: extras: expected an integer, got \"nope\"";
  expect_exact "wrong keyword cites the atom"
    "(byz-stall 3 wrong 0.5)"
    "line 1, column 14: byz-stall: expected keyword \"margin\", got \"wrong\"";
  expect_exact "unknown head cites the head, indented third line"
    "(seed 1)\n\n  (frobnicate 1)"
    "line 3, column 4: unknown fault form \"frobnicate\"";
  expect_exact "arity error cites the head"
    "(byz-mute 2 from 1 extra)"
    "line 1, column 2: byz-mute: wrong number of arguments (got 4)";
  expect_exact "unterminated form cites its opening paren"
    "(seed 1)\n  (crash 1 at 3"
    "line 2, column 3: unterminated form";
  expect_exact "stray close paren"
    "(seed 1)\n)"
    "line 2, column 1: unexpected ')'";
  expect_exact "bare atom outside a form"
    "crash"
    "line 1, column 1: expected '(', got \"crash\""

let test_validate () =
  let g = Topology.Generate.ring ~n:8 in
  let ok s = Schedule.validate ~graph:g s = Ok () in
  Alcotest.(check bool) "rich plan validates on ring8" true
    (ok { rich_schedule with Schedule.actions = rich_schedule.Schedule.actions });
  let bad actions =
    match Schedule.validate ~graph:g { Schedule.seed = 1; actions } with
    | Ok () -> Alcotest.fail "invalid schedule accepted"
    | Error _ -> ()
  in
  bad [ Schedule.Crash { router = 99; at = 1.0 } ];
  bad [ Schedule.Link_down { src = 0; dst = 4; at = 1.0 } ] (* not a ring link *);
  bad [ Schedule.Link_down { src = 0; dst = 1; at = -1.0 } ];
  bad [ Schedule.Msg_loss { src = 0; dst = 1; prob = 1.5 } ];
  bad [ Schedule.Msg_reorder { src = 0; dst = 1; prob = 0.5; delay = -0.1 } ];
  bad [ Schedule.Clock_skew { router = 0; skew = Float.nan } ]

let test_outage_accounting () =
  let s =
    { Schedule.seed = 1;
      actions =
        [ Schedule.Link_down { src = 0; dst = 1; at = 1.0 };
          Schedule.Crash { router = 3; at = 2.0 };
          Schedule.Link_up { src = 0; dst = 1; at = 3.0 };
          Schedule.Crash { router = 5; at = 3.5 };
          Schedule.Restart { router = 3; at = 4.0 } ] }
  in
  Alcotest.(check int) "two crashes" 2 (Schedule.crash_count s);
  (* Open windows: flap [1,3) and crash 3 [2,4) overlap; crash 5 at 3.5
     overlaps only crash 3. *)
  Alcotest.(check int) "peak concurrent outages" 2
    (Schedule.max_concurrent_outages s);
  let times =
    List.map
      (function
        | Schedule.Link_down { at; _ } | Schedule.Link_up { at; _ }
        | Schedule.Crash { at; _ } | Schedule.Restart { at; _ } ->
            at
        | _ -> Alcotest.fail "untimed action in timed list")
      (Schedule.timed s)
  in
  Alcotest.(check bool) "timed actions sorted" true
    (times = List.sort compare times)

(* --- chaos generation --- *)

let test_chaos_determinism () =
  let g = Topology.Generate.ring ~n:8 in
  let gen seed = Chaos.generate ~seed ~graph:g ~duration:30.0 () in
  Alcotest.(check bool) "same seed, identical schedule" true (gen 5 = gen 5);
  Alcotest.(check bool) "different seed, different schedule" true
    (Schedule.to_string (gen 5) <> Schedule.to_string (gen 6))

let test_chaos_budget () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun budget ->
      List.iter
        (fun seed ->
          let duration = 30.0 in
          let s = Chaos.generate ~seed ~graph:g ~duration ~budget () in
          Alcotest.(check bool) "validates" true
            (Schedule.validate ~graph:g s = Ok ());
          Alcotest.(check bool) "concurrency within budget" true
            (Schedule.max_concurrent_outages s <= budget.Chaos.max_concurrent);
          Alcotest.(check bool) "crashes within budget" true
            (Schedule.crash_count s <= budget.Chaos.max_crashes);
          List.iter
            (fun a ->
              match a with
              | Schedule.Link_down { at; _ } | Schedule.Link_up { at; _ }
              | Schedule.Crash { at; _ } | Schedule.Restart { at; _ } ->
                  Alcotest.(check bool) "window inside 0.9 x duration" true
                    (at >= 0.0 && at <= 0.9 *. duration)
              | Schedule.Msg_loss { prob; _ } ->
                  Alcotest.(check bool) "loss within budget" true
                    (prob <= budget.Chaos.max_msg_loss)
              | Schedule.Msg_dup _ | Schedule.Msg_reorder _ -> ()
              | Schedule.Clock_skew { skew; _ } ->
                  Alcotest.(check bool) "skew within budget" true
                    (Float.abs skew <= budget.Chaos.max_skew)
              | Schedule.Byz_frame _ | Schedule.Byz_equivocate _
              | Schedule.Byz_mute _ | Schedule.Byz_stall _ ->
                  ())
            s.Schedule.actions;
          Alcotest.(check bool) "byzantine roles within budget" true
            (Schedule.byzantine_count s <= budget.Chaos.max_byzantine))
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ])
    [ Chaos.default_budget; Chaos.gentle_budget; Chaos.byzantine_budget ]

(* --- the lossy control channel --- *)

let test_ctrl_extremes () =
  let clean = Ctrl.reliable () in
  (match Ctrl.send clean ~src:0 ~dst:1 ~tag:7 () with
  | Ctrl.Delivered { attempts = 1; _ } -> ()
  | _ -> Alcotest.fail "reliable channel must deliver first try");
  let dead =
    Ctrl.create ~seed:3 ~default:{ Ctrl.clean with Ctrl.loss = 1.0 } ()
  in
  (match Ctrl.send dead ~src:0 ~dst:1 ~tag:7 () with
  | Ctrl.Timed_out { attempts; _ } ->
      Alcotest.(check int) "exhausts the retry budget"
        Ctrl.default_retry.Ctrl.max_attempts attempts
  | Ctrl.Delivered _ -> Alcotest.fail "fully lossy channel delivered");
  let st = Ctrl.stats dead in
  Alcotest.(check int) "one send" 1 st.Ctrl.sends;
  Alcotest.(check int) "all attempts lost" st.Ctrl.attempts st.Ctrl.losses;
  Alcotest.(check int) "one timeout" 1 st.Ctrl.timeouts

(* Pin the documented budget-exhaustion semantics (ctrl.mli): under the
   default retry policy attempt i waits 0.25 * 2^(i-1) seconds, so a
   send into 100% loss times out after exactly 4 attempts having waited
   the geometric sum 0.25 + 0.5 + 1 + 2 = 3.75 s — and the prefix sums
   hold for every truncated budget too. *)
let test_ctrl_budget_exhaustion () =
  let dead () =
    Ctrl.create ~seed:5 ~default:{ Ctrl.clean with Ctrl.loss = 1.0 } ()
  in
  Alcotest.(check int) "default budget is 4 attempts" 4
    Ctrl.default_retry.Ctrl.max_attempts;
  Alcotest.(check (float 1e-12)) "default base timeout" 0.25
    Ctrl.default_retry.Ctrl.base_timeout;
  Alcotest.(check (float 1e-12)) "default backoff doubles" 2.0
    Ctrl.default_retry.Ctrl.backoff;
  (* waited after k attempts = 0.25 * (2^k - 1): the backoff sequence
     0.25/0.5/1/2 s pinned via its prefix sums. *)
  List.iter
    (fun (attempts, expected_wait) ->
      let retry = { Ctrl.default_retry with Ctrl.max_attempts = attempts } in
      match Ctrl.send (dead ()) ~retry ~src:0 ~dst:1 ~tag:99 () with
      | Ctrl.Timed_out { attempts = a; waited } ->
          Alcotest.(check int)
            (Printf.sprintf "budget %d: all attempts used" attempts)
            attempts a;
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "budget %d: geometric wait" attempts)
            expected_wait waited
      | Ctrl.Delivered _ -> Alcotest.fail "fully lossy channel delivered")
    [ (1, 0.25); (2, 0.75); (3, 1.75); (4, 3.75) ];
  (* Exhaustion must be deterministic: an identical fresh channel
     yields the identical outcome. *)
  let once () = Ctrl.send (dead ()) ~src:0 ~dst:1 ~tag:99 () in
  Alcotest.(check bool) "exhaustion replays identically" true (once () = once ())

(* Protocol-faulty endpoints on the channel: a muted router burns the
   whole retry budget of every send touching it without flipping loss
   coins, a staller converts its peers' budget into delivery delay. *)
let test_ctrl_peer_faults () =
  let ch = Ctrl.reliable () in
  Ctrl.set_peer_fault ch ~router:3
    { Ctrl.mute_from = Some 10.0; stall_margin = None };
  (match Ctrl.send ch ~now:5.0 ~src:0 ~dst:3 ~tag:1 () with
  | Ctrl.Delivered _ -> ()
  | Ctrl.Timed_out _ -> Alcotest.fail "mute refused before its start");
  (match Ctrl.send ch ~now:10.0 ~src:0 ~dst:3 ~tag:2 () with
  | Ctrl.Timed_out { attempts = 4; waited } ->
      Alcotest.(check (float 1e-12)) "mute burns the whole budget" 3.75 waited
  | _ -> Alcotest.fail "muted endpoint participated");
  (match Ctrl.send ch ~now:11.0 ~src:3 ~dst:0 ~tag:3 () with
  | Ctrl.Timed_out _ -> ()
  | Ctrl.Delivered _ -> Alcotest.fail "muted source still sent");
  Alcotest.(check int) "mute refusals counted" 2 (Ctrl.stats ch).Ctrl.mutes;
  Ctrl.set_peer_fault ch ~router:3 Ctrl.no_peer_fault;
  (match Ctrl.send ch ~now:12.0 ~src:0 ~dst:3 ~tag:4 () with
  | Ctrl.Delivered _ -> ()
  | Ctrl.Timed_out _ -> Alcotest.fail "cleared mute still refused");
  Ctrl.set_peer_fault ch ~router:6
    { Ctrl.mute_from = None; stall_margin = Some 0.8 };
  (match Ctrl.send ch ~src:0 ~dst:6 ~tag:5 () with
  | Ctrl.Delivered { extra_delay; _ } ->
      Alcotest.(check (float 1e-12)) "staller consumes 80% of the budget"
        (0.8 *. 3.75) extra_delay
  | Ctrl.Timed_out _ -> Alcotest.fail "stalled delivery timed out");
  Alcotest.(check int) "stalls counted" 1 (Ctrl.stats ch).Ctrl.stalls;
  Alcotest.(check bool) "stall margin must lie in [0,1)" true
    (try
       Ctrl.set_peer_fault ch ~router:1
         { Ctrl.mute_from = None; stall_margin = Some 1.0 };
       false
     with Invalid_argument _ -> true)

let test_ctrl_replay_determinism () =
  let faults =
    { Ctrl.loss = 0.4; duplicate = 0.2; reorder = 0.3; reorder_delay = 0.05 }
  in
  let outcomes order =
    let ch = Ctrl.create ~seed:11 ~default:faults () in
    List.map (fun tag -> (tag, Ctrl.send ch ~src:0 ~dst:1 ~tag ())) order
    |> List.sort compare
  in
  (* The per-(src,dst,tag,attempt) coins make the outcome a function of
     the message identity, not the call order. *)
  Alcotest.(check bool) "outcomes independent of send order" true
    (outcomes [ 1; 2; 3; 4; 5 ] = outcomes [ 5; 3; 1; 4; 2 ])

let test_ctrl_validation () =
  Alcotest.(check bool) "loss outside [0,1] rejected" true
    (try
       ignore (Ctrl.create ~default:{ Ctrl.clean with Ctrl.loss = 1.5 } ());
       false
     with Invalid_argument _ -> true);
  let ch = Ctrl.reliable () in
  Alcotest.(check bool) "bad retry rejected" true
    (try
       ignore
         (Ctrl.send ch
            ~retry:{ Ctrl.max_attempts = 0; base_timeout = 0.1; backoff = 2.0 }
            ~src:0 ~dst:1 ~tag:0 ());
       false
     with Invalid_argument _ -> true)

(* --- the injector --- *)

let line3 () =
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
  let probe = Probe.create () in
  Net.set_probe net (Some probe);
  Net.use_routing net (Topology.Routing.compute g);
  (net, probe)

let up net ~src ~dst =
  match Net.iface net ~src ~dst with
  | Some i -> Iface.is_up i
  | None -> Alcotest.failf "no link %d->%d" src dst

let test_injector_link_window () =
  let net, probe = line3 () in
  let s =
    { Schedule.seed = 1;
      actions =
        [ Schedule.Link_down { src = 1; dst = 2; at = 1.0 };
          Schedule.Link_up { src = 1; dst = 2; at = 3.0 } ] }
  in
  let inj = Injector.apply ~probe ~net s in
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:300 ~start:0.0 ~stop:5.0);
  Net.run ~until:2.0 net;
  Alcotest.(check bool) "link down inside the window" false (up net ~src:1 ~dst:2);
  Net.run ~until:5.0 net;
  Alcotest.(check bool) "link restored after the window" true (up net ~src:1 ~dst:2);
  Alcotest.(check int) "both fault records emitted" 2 (Injector.injected inj);
  let cons = Probe.conservation probe in
  Alcotest.(check bool) "window dropped traffic as benign link_down" true
    (cons.Probe.total_dropped > 0);
  Alcotest.(check bool) "traffic flowed outside the window" true
    (cons.Probe.total_delivered > 0)

let test_injector_crash_refcount () =
  (* A crash window nested inside a link flap: the restart must not
     resurrect the link the flap still holds down. *)
  let net, probe = line3 () in
  let s =
    { Schedule.seed = 1;
      actions =
        [ Schedule.Link_down { src = 1; dst = 2; at = 1.0 };
          Schedule.Crash { router = 2; at = 1.5 };
          Schedule.Restart { router = 2; at = 2.0 };
          Schedule.Link_up { src = 1; dst = 2; at = 3.0 } ] }
  in
  ignore (Injector.apply ~probe ~net s);
  Net.run ~until:1.75 net;
  Alcotest.(check bool) "crash downs the reverse link too" false
    (up net ~src:2 ~dst:1);
  Net.run ~until:2.5 net;
  Alcotest.(check bool) "restart restores the crash-only link" true
    (up net ~src:2 ~dst:1);
  Alcotest.(check bool) "flapped link still held down after restart" false
    (up net ~src:1 ~dst:2);
  Net.run ~until:3.5 net;
  Alcotest.(check bool) "link-up finally restores it" true (up net ~src:1 ~dst:2)

let test_injector_ctrl_and_skew () =
  let s =
    { Schedule.seed = 9;
      actions =
        [ Schedule.Msg_loss { src = 0; dst = 1; prob = 1.0 };
          Schedule.Clock_skew { router = 3; skew = 0.002 } ] }
  in
  let ch = Injector.ctrl s in
  (match Ctrl.send ch ~src:0 ~dst:1 ~tag:1 () with
  | Ctrl.Timed_out _ -> ()
  | Ctrl.Delivered _ -> Alcotest.fail "fully lossy channel delivered");
  (match Ctrl.send ch ~src:1 ~dst:0 ~tag:1 () with
  | Ctrl.Delivered _ -> ()
  | Ctrl.Timed_out _ -> Alcotest.fail "clean reverse direction timed out");
  let skew = Injector.skew_fn s in
  Alcotest.(check (float 1e-12)) "skewed router" 0.002 (skew 3);
  Alcotest.(check (float 1e-12)) "default zero" 0.0 (skew 0)

(* --- oracle scoring --- *)

let verdict ?subject ?(suspects = []) ~alarm time =
  { Telemetry.Span.time; detector = "test"; subject; suspects; confidence = None;
    alarm; detail = ""; evidence = [] }

let test_oracle_scoring () =
  let vs =
    [ verdict ~subject:1 ~alarm:false 5.0;
      verdict ~subject:2 ~alarm:true 12.0;
      verdict ~subject:3 ~alarm:true 13.0;
      verdict ~suspects:[ 4; 2 ] ~alarm:true 14.0 ]
  in
  let o = Oracle.score ~malicious:[ 2 ] ~attack_start:10.0 vs in
  Alcotest.(check int) "verdicts" 4 o.Oracle.verdicts;
  Alcotest.(check int) "alarms" 3 o.Oracle.alarms;
  Alcotest.(check int) "true alarms (subject and suspects)" 2 o.Oracle.true_alarms;
  Alcotest.(check int) "false alarms" 1 o.Oracle.false_alarms;
  Alcotest.(check (list int)) "detected" [ 2 ] o.Oracle.detected;
  Alcotest.(check (list int)) "falsely accused" [ 3 ] o.Oracle.falsely_accused;
  Alcotest.(check (float 1e-9)) "precision" (2.0 /. 3.0) o.Oracle.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 o.Oracle.recall;
  Alcotest.(check (float 1e-9)) "FAR" 0.25 o.Oracle.false_accusation_rate;
  (match o.Oracle.detection_latency with
  | Some l -> Alcotest.(check (float 1e-9)) "latency" 2.0 l
  | None -> Alcotest.fail "no latency");
  (* Edge conventions. *)
  let quiet = Oracle.score ~malicious:[ 2 ] [] in
  Alcotest.(check (float 1e-9)) "no alarms, precision 1" 1.0 quiet.Oracle.precision;
  Alcotest.(check (float 1e-9)) "no verdicts, FAR 0" 0.0
    quiet.Oracle.false_accusation_rate;
  Alcotest.(check (float 1e-9)) "missed attacker, recall 0" 0.0 quiet.Oracle.recall;
  let benign = Oracle.score ~malicious:[] [ verdict ~subject:1 ~alarm:false 1.0 ] in
  Alcotest.(check (float 1e-9)) "nothing to detect, recall 1" 1.0
    benign.Oracle.recall

let test_oracle_json () =
  let o =
    Oracle.score ~malicious:[ 2 ] ~attack_start:10.0
      [ verdict ~subject:2 ~alarm:true 12.0 ]
  in
  let doc = Telemetry.Export.to_string (Oracle.merge_json [ o; o ]) in
  match Telemetry.Export.of_string doc with
  | Error e -> Alcotest.failf "report does not parse back: %s" e
  | Ok json ->
      (match Telemetry.Export.member "schema" json with
      | Some (Telemetry.Export.String "mrdetect-robustness-v1") -> ()
      | _ -> Alcotest.fail "missing schema");
      (match Telemetry.Export.member "runs" json with
      | Some (Telemetry.Export.List l) ->
          Alcotest.(check int) "one report per run" 2 (List.length l)
      | _ -> Alcotest.fail "missing runs");
      match Telemetry.Export.member "aggregate" json with
      | Some agg ->
          (* A whole-number float may parse back as an Int. *)
          (match Telemetry.Export.member "worst_precision" agg with
          | Some (Telemetry.Export.Float p) ->
              Alcotest.(check (float 1e-9)) "worst precision" 1.0 p
          | Some (Telemetry.Export.Int p) ->
              Alcotest.(check int) "worst precision" 1 p
          | _ -> Alcotest.fail "missing worst_precision");
          (* The aggregate latency quantiles merge both runs' histograms:
             one true alarm at latency 2.0 per run, and 2.0 sits exactly
             on a bucket edge of the (20, -4) geometry, so the quantile
             upper bound is 2.0 itself. *)
          (match Telemetry.Export.member "detection_latency_quantiles" agg with
          | Some q ->
              (match Telemetry.Export.member "count" q with
              | Some (Telemetry.Export.Int n) ->
                  Alcotest.(check int) "merged latency count" 2 n
              | _ -> Alcotest.fail "missing latency count");
              (match
                 Option.bind
                   (Telemetry.Export.member "p95" q)
                   Telemetry.Export.to_float
               with
              | Some p -> Alcotest.(check (float 1e-9)) "merged p95" 2.0 p
              | None -> Alcotest.fail "missing latency p95")
          | None -> Alcotest.fail "missing detection_latency_quantiles")
      | None -> Alcotest.fail "missing aggregate"

(* Merge edge cases: a run that never rendered a verdict, a run whose
   every alarm was false, and a latency-quantile merge where one side's
   histogram is empty must all aggregate without poisoning the other
   side's numbers. *)
let test_oracle_merge_edges () =
  let get_agg doc path =
    match Telemetry.Export.of_string (Telemetry.Export.to_string doc) with
    | Error e -> Alcotest.failf "merged report does not parse: %s" e
    | Ok json -> (
        match
          List.fold_left
            (fun acc key -> Option.bind acc (Telemetry.Export.member key))
            (Telemetry.Export.member "aggregate" json)
            path
        with
        | Some v -> v
        | None -> Alcotest.failf "aggregate missing %s" (String.concat "." path))
  in
  let as_float = function
    | Telemetry.Export.Float f -> f
    | Telemetry.Export.Int i -> float_of_int i
    | _ -> Alcotest.fail "expected a number"
  in
  (* Zero-verdict run merged with a detecting run: the quiet side
     contributes recall 0 (its attacker went unseen) but no alarms, no
     latency samples, no alpha violations. *)
  let quiet = Oracle.score ~malicious:[ 2 ] [] in
  let seeing =
    Oracle.score ~malicious:[ 2 ] ~attack_start:10.0
      [ verdict ~subject:2 ~alarm:true 12.0 ]
  in
  let doc = Oracle.merge_json [ quiet; seeing ] in
  Alcotest.(check (float 1e-9)) "quiet run drags worst recall to 0" 0.0
    (as_float (get_agg doc [ "worst_recall" ]));
  Alcotest.(check (float 1e-9)) "quiet run does not drag precision" 1.0
    (as_float (get_agg doc [ "worst_precision" ]));
  Alcotest.(check (float 1e-9)) "no false alarms either side" 0.0
    (as_float (get_agg doc [ "total_false_alarms" ]));
  (* One empty latency side: the merged quantiles must equal the
     detecting run's alone — byte-identical documents. *)
  let agg_only = get_agg doc [ "detection_latency_quantiles" ] in
  let agg_alone =
    get_agg (Oracle.merge_json [ seeing ]) [ "detection_latency_quantiles" ]
  in
  Alcotest.(check string) "empty histogram side merges as identity"
    (Telemetry.Export.to_string agg_alone)
    (Telemetry.Export.to_string agg_only);
  Alcotest.(check int) "merged count is the non-empty side's" 1
    (match Telemetry.Export.member "count" agg_only with
    | Some (Telemetry.Export.Int n) -> n
    | _ -> Alcotest.fail "missing count");
  (* Two empty sides: quantiles stay null, not zero. *)
  (match
     get_agg (Oracle.merge_json [ quiet; quiet ]) [ "detection_latency_quantiles" ]
   with
  | Telemetry.Export.Null -> ()
  | _ -> Alcotest.fail "two empty histograms must merge to null");
  (* All-false-alarm run: every alarming verdict implicates only benign
     routers, so precision collapses, FAR saturates, and every alarm is
     an alpha violation. *)
  let framed =
    Oracle.score ~malicious:[ 2 ]
      [ verdict ~subject:5 ~alarm:true 1.0;
        verdict ~suspects:[ 4; 6 ] ~alarm:true 2.0 ]
  in
  Alcotest.(check (float 1e-9)) "all-false precision 0" 0.0 framed.Oracle.precision;
  Alcotest.(check (float 1e-9)) "all-false FAR 1" 1.0
    framed.Oracle.false_accusation_rate;
  Alcotest.(check int) "all alarms are alpha violations" 2
    framed.Oracle.alpha_violations;
  Alcotest.(check int) "subject-named framing counted" 1 framed.Oracle.framed_honest;
  let doc = Oracle.merge_json [ framed; seeing ] in
  Alcotest.(check (float 1e-9)) "framed run drags worst precision to 0" 0.0
    (as_float (get_agg doc [ "worst_precision" ]));
  Alcotest.(check (float 1e-9)) "alpha violations aggregate" 2.0
    (as_float (get_agg doc [ "total_alpha_violations" ]));
  Alcotest.(check (float 1e-9)) "framed honest aggregates" 1.0
    (as_float (get_agg doc [ "total_framed_honest" ]))

(* --- adversary combinators (and their use by the fault runs) --- *)

let mk_ctx ?(now = 0.0) ?(prev = 0) () =
  { Router.clock = { Sim.f = now }; prev; next_hop = 1; queue_occupancy = 0;
    queue_limit = 64_000; red = None }

let mk_pkt ~sim ~flow = Packet.make ~sim ~src:0 ~dst:2 ~flow ~size:100 Packet.Udp

let test_adversary_composition () =
  let sim = Sim.create ~seed:1 () in
  let b = Core.Adversary.after 5.0 (Core.Adversary.on_flows [ 7 ] Core.Adversary.drop_all) in
  let early = mk_ctx ~now:4.0 () and late = mk_ctx ~now:6.0 () in
  let victim = mk_pkt ~sim ~flow:7 and other = mk_pkt ~sim ~flow:8 in
  Alcotest.(check bool) "honest before the start time" true
    (b early victim = Router.Forward);
  Alcotest.(check bool) "drops the victim flow after" true
    (b late victim = Router.Drop);
  Alcotest.(check bool) "other flows forwarded after" true
    (b late other = Router.Forward);
  (* Terminal traffic (prev = -1) is always honest, §2.1.4. *)
  Alcotest.(check bool) "own traffic never attacked" true
    (b (mk_ctx ~now:6.0 ~prev:(-1) ()) victim = Router.Forward)

let test_delay_fraction_decisions () =
  let sim = Sim.create ~seed:1 () in
  let b = Core.Adversary.delay_fraction ~seed:4 ~delay:0.05 0.5 in
  let ctx = mk_ctx () in
  let pkts = List.init 400 (fun _ -> mk_pkt ~sim ~flow:1) in
  let delayed, forwarded =
    List.fold_left
      (fun (d, f) p ->
        match b ctx p with
        | Router.Delay t ->
            Alcotest.(check (float 1e-12)) "configured delay" 0.05 t;
            (d + 1, f)
        | Router.Forward -> (d, f + 1)
        | Router.Drop | Router.Modify _ -> Alcotest.fail "unexpected action")
      (0, 0) pkts
  in
  Alcotest.(check int) "every packet decided" 400 (delayed + forwarded);
  Alcotest.(check bool) "roughly the configured fraction delayed" true
    (delayed > 120 && delayed < 280);
  (* The coin is keyed on the packet, so the decision replays. *)
  List.iter
    (fun p -> Alcotest.(check bool) "decision replays" true (b ctx p = b ctx p))
    pkts

let test_delay_fraction_reorders () =
  (* Through a line network: held packets overtake nothing, but the
     packets behind them do overtake, so arrivals leave uid order. *)
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
  Net.use_routing net (Topology.Routing.compute g);
  let arrivals = ref [] in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with
      | Router.Delivered_local when ev.Net.router = 2 ->
          arrivals := ev.Net.pkt.Packet.uid :: !arrivals
      | _ -> ());
  Router.set_behavior (Net.router net 1)
    (Core.Adversary.delay_fraction ~seed:4 ~delay:0.05 0.3);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:200.0 ~size:300 ~start:0.0 ~stop:2.0);
  Net.run ~until:3.0 net;
  let order = List.rev !arrivals in
  Alcotest.(check bool) "traffic arrived" true (List.length order > 100);
  Alcotest.(check bool) "delays reordered the stream" true
    (order <> List.sort compare order);
  Alcotest.(check bool) "nothing was lost, only held" true
    (List.sort compare order = List.sort_uniq compare order)

(* --- fatih hardening: degrade, never accuse --- *)

let test_fatih_degrades_under_full_loss () =
  let dead = Ctrl.create ~seed:3 ~default:{ Ctrl.clean with Ctrl.loss = 1.0 } () in
  let t = Rob.ring_trial ~seed:31 ~duration:20.0 ~ctrl:dead ~attacked:true () in
  Alcotest.(check int) "no verdicts without an exchange" 0 t.Rob.outcome.Oracle.verdicts;
  Alcotest.(check int) "no detections" 0 t.Rob.detections;
  Alcotest.(check bool) "rounds degraded instead" true (t.Rob.degraded > 0);
  Alcotest.(check (float 1e-9)) "and none falsely accused" 0.0
    t.Rob.outcome.Oracle.false_accusation_rate

let test_fatih_detects_with_clean_ctrl () =
  let t =
    Rob.ring_trial ~seed:31 ~duration:30.0 ~ctrl:(Ctrl.reliable ()) ~attacked:true ()
  in
  Alcotest.(check (float 1e-9)) "attacker detected" 1.0 t.Rob.outcome.Oracle.recall;
  Alcotest.(check int) "no false alarms" 0 t.Rob.outcome.Oracle.false_alarms

(* Retransmissions count toward [words_exchanged] whether or not the
   exchange finally gets through.  On a 3-router line, CBR both ways
   from 0 s to 4 s (81 packets each way, all delivered) fills the two
   monitored segments ⟨0,1,2⟩ and ⟨2,1,0⟩ with 81 fingerprints per
   summary, 83 words each.  The channel drops every 0 -> 2 message, so
   ⟨0,1,2⟩'s exchange in the round at 5 s burns 4 attempts and degrades,
   while ⟨2,1,0⟩'s goes through first time.  Each segment ships its two
   summaries once (2 x 166); the degraded one also re-sent its sent
   summary 3 times (3 x 83) — 581 words, where only counting delivered
   exchanges' retries gives 332. *)
let test_fatih_degraded_exchange_words () =
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let ctrl = Ctrl.create ~links:[ ((0, 2), { Ctrl.clean with Ctrl.loss = 1.0 }) ] () in
  let fatih = Core.Fatih.deploy ~net ~rt ~ctrl () in
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:20.0 ~size:500 ~start:0.0 ~stop:4.0))
    [ (0, 2); (2, 0) ];
  Net.run ~until:6.0 net;
  Alcotest.(check int) "fingerprints observed" (4 * 81)
    (Core.Fatih.fingerprints_observed fatih);
  Alcotest.(check int) "one degraded segment-round" 1 (Core.Fatih.rounds_degraded fatih);
  Alcotest.(check int) "the other judged clean" 0
    (List.length (Core.Fatih.detections fatih));
  Alcotest.(check int) "words exchanged" ((2 * 166) + (3 * 83))
    (Core.Fatih.words_exchanged fatih)

(* A link flap inside one round excuses that segment-round and nothing
   else.  On a 3-router line, CBR both ways from 0 s to 9 s keeps the
   segments ⟨0,1,2⟩ and ⟨2,1,0⟩ busy; the directed link 1 -> 2 fails at
   6 s and is restored at 7 s, inside the round judged at 10 s.  Only
   ⟨0,1,2⟩ has that link as an edge: its 10 s round is excused (the
   link is up again by then), every other busy segment-round is judged
   clean, and neither Fatih nor Π2 raises an alarm. *)
let flap_run deploy =
  let g = Topology.Generate.line ~n:3 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let probe = Probe.create () in
  Net.set_probe net (Some probe);
  let outcome = deploy ~net ~rt ~probe in
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:100.0 ~size:500 ~start:0.0 ~stop:9.0))
    [ (0, 2); (2, 0) ];
  Net.run ~until:6.0 net;
  Net.fail_link net ~src:1 ~dst:2;
  Net.run ~until:7.0 net;
  Net.restore_link net ~src:1 ~dst:2;
  Net.run ~until:16.0 net;
  let cons = Probe.conservation probe in
  Alcotest.(check bool) "the flap dropped traffic" true (cons.Probe.total_dropped > 0);
  Alcotest.(check (list string)) "no alarm" []
    (List.filter_map
       (fun (v : Probe.verdict) -> if v.alarm then Some v.detail else None)
       (Probe.verdicts probe));
  outcome ()

let test_link_flap_excused () =
  let check name deploy =
    let excused, detections = flap_run deploy in
    Alcotest.(check int) (name ^ ": one excused segment-round") 1 excused;
    Alcotest.(check int) (name ^ ": no detection") 0 detections
  in
  check "fatih" (fun ~net ~rt ~probe ->
      let t = Core.Fatih.deploy ~net ~rt ~probe () in
      fun () -> (Core.Fatih.rounds_excused t, List.length (Core.Fatih.detections t)));
  check "pi2" (fun ~net ~rt ~probe ->
      let t = Core.Pi2_live.deploy ~net ~rt ~probe () in
      fun () ->
        (Core.Pi2_live.rounds_excused t, List.length (Core.Pi2_live.detections t)))

(* --- the golden robustness property --- *)

let test_golden_fatih_benign_chaos () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun seed ->
      let schedule =
        Chaos.generate ~seed ~graph:g ~duration:20.0 ~budget:Chaos.gentle_budget ()
      in
      let t = Rob.ring_trial ~seed:(100 + seed) ~duration:20.0 ~schedule ~attacked:false () in
      Alcotest.(check bool) "churn was injected" true (t.Rob.faults > 0);
      Alcotest.(check int)
        (Printf.sprintf "fatih, chaos seed %d: zero false alarms" seed)
        0 t.Rob.outcome.Oracle.false_alarms;
      Alcotest.(check (float 1e-9)) "FAR 0" 0.0
        t.Rob.outcome.Oracle.false_accusation_rate)
    [ 1; 2; 3 ]

let test_golden_chi_benign_chaos () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun seed ->
      let duration = 20.0 in
      let schedule =
        Chaos.generate ~seed ~graph:g ~duration ~budget:Chaos.gentle_budget ()
      in
      let probe = Probe.create () in
      let net = Net.create ~seed:(200 + seed) ~jitter_bound:200e-6 g in
      Net.set_probe net (Some probe);
      let rt = Topology.Routing.compute g in
      Net.use_routing net rt;
      ignore (Injector.apply ~probe ~net schedule);
      List.iter
        (fun (s, d) ->
          ignore
            (Flow.cbr net ~src:s ~dst:d ~rate_pps:80.0 ~size:500 ~start:0.0
               ~stop:duration))
        [ (0, 4); (4, 0); (1, 5); (5, 1); (3, 7); (7, 3) ];
      let config = { Core.Chi.default_config with Core.Chi.tau = 2.0 } in
      let skew = Injector.skew_fn schedule in
      ignore
        (Core.Chi.deploy ~net ~rt ~router:2 ~next:1 ~config ~probe
           ~skew:(fun ~reporter -> skew reporter)
           ());
      Net.run ~until:duration net;
      let o = Oracle.of_probe ~malicious:[] probe in
      Alcotest.(check int)
        (Printf.sprintf "chi, chaos seed %d: zero false alarms" seed)
        0 o.Oracle.false_alarms)
    [ 1; 2; 3 ]

let test_schedule_replay_determinism () =
  let g = Topology.Generate.ring ~n:8 in
  let schedule =
    Chaos.generate ~seed:5 ~graph:g ~duration:20.0 ~budget:Chaos.default_budget ()
  in
  let run () = Rob.ring_trial ~seed:31 ~duration:20.0 ~schedule ~attacked:true () in
  Alcotest.(check bool) "identical trials from identical schedules" true
    (run () = run ())

let test_chaos_jobs_determinism () =
  let trials = List.init 4 Fun.id in
  let run jobs =
    Experiments.Pool.map ~jobs
      (Rob.chaos_trial ~seed:3 ~duration:10.0 ~budget:Chaos.default_budget)
      trials
  in
  Alcotest.(check bool) "jobs=4 equals jobs=1 structurally" true (run 1 = run 4)

(* --- simulate flag validation (the CLI contract) --- *)

let test_config_validation () =
  let of_cmdline ?(topology = "ring") ?(protocol = "fatih") ?(duration = 30.0)
      ?(flows = 8) ?(trace_sample = 1.0) ?(attacker = 2) ?(fraction = 0.2) () =
    Experiments.Simulate.Config.of_cmdline ~topology ~protocol
      ~attack:"drop-fraction" ~fraction ~attacker ~duration ~seed:1 ~flows
      ~trace:0 ~metrics:None ~journal:None ~trace_out:None ~trace_sample
      ~faults:None
  in
  (match of_cmdline () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "default config rejected: %s" e);
  let rejected name cfg fragment =
    match cfg with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error e ->
        let contains hay needle =
          let lh = String.length hay and ln = String.length needle in
          let rec go i =
            i + ln <= lh && (String.sub hay i ln = needle || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S names the flag" name e)
          true (contains e fragment)
  in
  rejected "negative duration" (of_cmdline ~duration:(-5.0) ()) "duration";
  rejected "zero duration" (of_cmdline ~duration:0.0 ()) "duration";
  rejected "endless duration" (of_cmdline ~duration:1e300 ()) "duration";
  rejected "sample above 1" (of_cmdline ~trace_sample:1.5 ()) "sample";
  rejected "negative sample" (of_cmdline ~trace_sample:(-0.1) ()) "sample";
  rejected "no flows" (of_cmdline ~flows:0 ()) "flow";
  rejected "attacker out of range" (of_cmdline ~attacker:64 ()) "attacker";
  rejected "fraction above 1" (of_cmdline ~fraction:1.5 ()) "fraction";
  rejected "unknown topology" (of_cmdline ~topology:"moebius" ()) "topology";
  rejected "unknown protocol" (of_cmdline ~protocol:"psychic" ()) "protocol"

(* --- input robustness: byte-edited inputs never raise --- *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

(* A real `simulate --metrics` document, run with stdout silenced. *)
let metrics_document () =
  let path = Filename.temp_file "fuzz_metrics" ".json" in
  let devnull = open_out "/dev/null" in
  let backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel devnull) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 backup Unix.stdout;
      Unix.close backup;
      close_out devnull)
    (fun () ->
      Experiments.Simulate.run
        { Experiments.Simulate.Config.default with
          protocol = "chi"; attack = Drop_fraction 0.3; duration = 3.0; seed = 5;
          flows = 4; metrics = Some path });
  let text = read_text path in
  Sys.remove path;
  text

(* An edit is (position, kind, byte): kind 0 overwrites the byte at the
   position, 1 inserts before it, 2 deletes it. *)
let apply_edits text edits =
  List.fold_left
    (fun s (pos, kind, c) ->
      let n = String.length s in
      if n = 0 then String.make 1 c
      else
        let i = pos mod n in
        match kind with
        | 0 -> String.mapi (fun j x -> if j = i then c else x) s
        | 1 -> String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
        | _ -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1))
    text edits

let edits_arb =
  QCheck.make
    ~print:(fun es ->
      String.concat "; "
        (List.map (fun (p, k, c) -> Printf.sprintf "(%d,%d,%C)" p k c) es))
    QCheck.Gen.(
      list_size (int_range 1 4) (triple (int_bound 1_000_000) (int_bound 2) char))

let test_fuzz_parsers () =
  let plan = read_text "../examples/ring8-churn.faults" in
  let doc = metrics_document () in
  let graph = Topology.Generate.ring ~n:8 in
  (* The unedited inputs parse. *)
  Alcotest.(check bool) "plan parses" true (Result.is_ok (Schedule.of_string plan));
  Alcotest.(check bool) "document parses" true
    (Result.is_ok (Telemetry.Export.of_string doc));
  let prop =
    QCheck.Test.make ~name:"byte-edited inputs return Ok or Error" ~count:500
      (QCheck.pair edits_arb edits_arb)
      (fun (plan_edits, doc_edits) ->
        (match Schedule.of_string (apply_edits plan plan_edits) with
        | Ok s ->
            ignore (Schedule.validate ~graph s : (unit, string) result);
            ignore (Schedule.to_string s : string)
        | Error _ -> ());
        (match Telemetry.Export.of_string (apply_edits doc doc_edits) with
        | Ok _ | Error _ -> ());
        true)
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |]) prop

let () =
  Alcotest.run "faults"
    [ ( "schedule",
        [ Alcotest.test_case "text round trip" `Quick test_roundtrip;
          Alcotest.test_case "comments" `Quick test_parse_comments;
          Alcotest.test_case "parse errors carry lines" `Quick test_parse_errors;
          Alcotest.test_case "parse errors cite atom and column" `Quick
            test_parse_positions;
          Alcotest.test_case "validation" `Quick test_validate;
          Alcotest.test_case "outage accounting" `Quick test_outage_accounting ] );
      ( "chaos",
        [ Alcotest.test_case "seed determinism" `Quick test_chaos_determinism;
          Alcotest.test_case "budget compliance" `Quick test_chaos_budget ] );
      ( "ctrl",
        [ Alcotest.test_case "loss extremes" `Quick test_ctrl_extremes;
          Alcotest.test_case "budget exhaustion backoff" `Quick
            test_ctrl_budget_exhaustion;
          Alcotest.test_case "peer mute and stall faults" `Quick
            test_ctrl_peer_faults;
          Alcotest.test_case "replay determinism" `Quick
            test_ctrl_replay_determinism;
          Alcotest.test_case "validation" `Quick test_ctrl_validation ] );
      ( "injector",
        [ Alcotest.test_case "link-down window" `Quick test_injector_link_window;
          Alcotest.test_case "crash/flap refcount" `Quick
            test_injector_crash_refcount;
          Alcotest.test_case "ctrl and skew from schedule" `Quick
            test_injector_ctrl_and_skew ] );
      ( "oracle",
        [ Alcotest.test_case "scoring" `Quick test_oracle_scoring;
          Alcotest.test_case "json report" `Quick test_oracle_json;
          Alcotest.test_case "merge edge cases" `Quick test_oracle_merge_edges ] );
      ( "adversary",
        [ Alcotest.test_case "after/on_flows composition" `Quick
            test_adversary_composition;
          Alcotest.test_case "delay_fraction decisions" `Quick
            test_delay_fraction_decisions;
          Alcotest.test_case "delay_fraction reorders" `Quick
            test_delay_fraction_reorders ] );
      ( "hardening",
        [ Alcotest.test_case "fatih degrades under full loss" `Slow
            test_fatih_degrades_under_full_loss;
          Alcotest.test_case "fatih detects with clean ctrl" `Slow
            test_fatih_detects_with_clean_ctrl;
          Alcotest.test_case "degraded exchanges count their retries" `Quick
            test_fatih_degraded_exchange_words;
          Alcotest.test_case "link flap inside a round excused once" `Quick
            test_link_flap_excused ] );
      ( "golden",
        [ Alcotest.test_case "fatih: benign chaos, zero false accusations" `Slow
            test_golden_fatih_benign_chaos;
          Alcotest.test_case "chi: benign chaos, zero false accusations" `Slow
            test_golden_chi_benign_chaos;
          Alcotest.test_case "schedule replay determinism" `Slow
            test_schedule_replay_determinism;
          Alcotest.test_case "chaos jobs determinism" `Slow
            test_chaos_jobs_determinism ] );
      ( "config",
        [ Alcotest.test_case "simulate flag validation" `Quick
            test_config_validation;
          Alcotest.test_case "byte-edited inputs never raise" `Quick
            test_fuzz_parsers ] ) ]
