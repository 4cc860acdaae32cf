(* Sharded-engine determinism suite.

   The contract under test: for every shard count K >= 1 the sharded
   engine produces byte-identical output — verdicts, journal, trace,
   oracle scores — on the same scenario.  K = 1 is the sequential
   reference of the same engine; the classic single-heap engine (shards
   absent) is exercised by every other suite and is unchanged. *)

module G = Topology.Graph
open Netsim

(* --- Prioq regression: stale references after grow + pop ------------ *)

(* Two ways the heap could keep dead values reachable: the slot a pop
   vacates (slot 0 when the heap empties), and the spare capacity growth
   fills with the value being pushed.  Watch collectability directly
   with a finaliser. *)
let test_prioq_no_stale_refs () =
  let collect_after_drain n =
    let q = Prioq.create () in
    let collected = ref 0 in
    for i = 0 to n - 1 do
      let v = ref i in
      Gc.finalise (fun _ -> incr collected) v;
      Prioq.push q ~priority:(float_of_int i) v
    done;
    while Prioq.pop q <> None do
      ()
    done;
    Gc.full_major ();
    Gc.full_major ();
    !collected
  in
  (* Enough pushes to grow capacity several times. *)
  Alcotest.(check int) "grown heap: popped values collected" 100
    (collect_after_drain 100);
  Alcotest.(check int) "small heap: popped-to-empty values collected" 3
    (collect_after_drain 3)

(* --- Partition ------------------------------------------------------ *)

let test_partition () =
  let g = Topology.Generate.ring ~n:8 in
  List.iter
    (fun k ->
      let owner = Shard.partition g ~k in
      Alcotest.(check int) "every router owned" 0
        (Array.fold_left (fun acc s -> if s < 0 || s >= k then acc + 1 else acc) 0 owner);
      let sizes = Array.make k 0 in
      Array.iter (fun s -> sizes.(s) <- sizes.(s) + 1) owner;
      Array.iteri
        (fun s size ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d of %d non-empty" s k)
            true (size > 0))
        sizes)
    [ 1; 2; 4; 8 ];
  (* Deterministic. *)
  let a = Shard.partition g ~k:3 and b = Shard.partition g ~k:3 in
  Alcotest.(check (array int)) "partition deterministic" a b;
  Alcotest.check_raises "k > n rejected"
    (Invalid_argument "Shard.partition: 9 shards for 8 routers") (fun () ->
      ignore (Shard.partition g ~k:9))

(* --- Engine-level determinism --------------------------------------- *)

(* A scenario rich enough to cross shards constantly: ring of 8, CBR and
   Poisson flows on antipodal pairs, one malicious dropper, link
   corruption, and a detector-style event subscription.  The digest
   folds every observable (event stream order, times, uids, payloads,
   app deliveries) into one string. *)
let run_scenario ~shards ~duration () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:11 ~jitter_bound:200e-6 ?shards g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let buf = Buffer.create 4096 in
  Net.subscribe_iface net (fun ev ->
      let tag =
        match ev.Net.kind with
        | Iface.Enqueued p -> Printf.sprintf "enq:%d" p.Packet.uid
        | Iface.Drop_congestion p -> Printf.sprintf "dcong:%d" p.Packet.uid
        | Iface.Drop_red_early p -> Printf.sprintf "dred:%d" p.Packet.uid
        | Iface.Drop_link_down p -> Printf.sprintf "ddown:%d" p.Packet.uid
        | Iface.Drop_corrupted p -> Printf.sprintf "dcorr:%d" p.Packet.uid
        | Iface.Transmit_start p -> Printf.sprintf "tx:%d" p.Packet.uid
        | Iface.Delivered p -> Printf.sprintf "dlv:%d:%Ld" p.Packet.uid p.Packet.payload
      in
      Buffer.add_string buf
        (Printf.sprintf "%.9f i %d>%d %s\n" ev.Net.time ev.Net.router ev.Net.next tag));
  Net.subscribe_router net (fun ev ->
      let tag =
        match ev.Net.kind with
        | Router.Malicious_drop { pkt; _ } -> Printf.sprintf "mdrop:%d" pkt.Packet.uid
        | Router.Delivered_local pkt -> Printf.sprintf "local:%d" pkt.Packet.uid
        | Router.Ttl_expired pkt -> Printf.sprintf "ttl:%d" pkt.Packet.uid
        | Router.No_route pkt -> Printf.sprintf "noroute:%d" pkt.Packet.uid
        | _ -> "other"
      in
      Buffer.add_string buf
        (Printf.sprintf "%.9f r %d %s\n" ev.Net.time ev.Net.router tag));
  (* Malicious interior router dropping a fraction of transit packets. *)
  Router.set_behavior (Net.router net 2) (Core.Adversary.drop_fraction ~seed:7 0.3);
  (* Benign corruption on one link. *)
  Net.set_link_corruption net ~src:5 ~dst:6 0.05;
  let flows =
    [ Flow.cbr net ~src:0 ~dst:4 ~rate_pps:300.0 ~size:400 ~start:0.05 ~stop:duration;
      Flow.poisson net ~src:1 ~dst:5 ~rate_pps:200.0 ~size:600 ~start:0.1 ~stop:duration;
      Flow.cbr net ~src:6 ~dst:2 ~rate_pps:250.0 ~size:300 ~start:0.02 ~stop:duration ]
  in
  let counted = Flow.delivered_counter net ~node:4 ~flow:(Flow.flow_id (List.hd flows)) in
  (* A mid-run control action through the control plane. *)
  Sim.schedule_at (Net.sim net) ~time:(duration /. 3.0) (fun () ->
      Net.fail_link net ~src:3 ~dst:4);
  Sim.schedule_at (Net.sim net) ~time:(duration /. 2.0) (fun () ->
      Net.restore_link net ~src:3 ~dst:4);
  Net.run ~until:duration net;
  Buffer.add_string buf
    (Printf.sprintf "sent=%s delivered=%d events=%d\n"
       (String.concat "," (List.map (fun f -> string_of_int (Flow.sent f)) flows))
       (counted ())
       (Net.events_processed net));
  Buffer.contents buf

let test_shard_k_invariance () =
  let reference = run_scenario ~shards:(Some 1) ~duration:3.0 () in
  List.iter
    (fun k ->
      let got = run_scenario ~shards:(Some k) ~duration:3.0 () in
      Alcotest.(check bool)
        (Printf.sprintf "K=%d byte-identical to K=1" k)
        true
        (String.equal reference got))
    [ 2; 4 ];
  Alcotest.(check bool) "scenario non-trivial" true (String.length reference > 10_000)

let test_shard_sequential_repeatable () =
  (* Two consecutive K=2 runs in one process must agree (root-rank
     context resets per engine). *)
  let a = run_scenario ~shards:(Some 2) ~duration:1.0 () in
  let b = run_scenario ~shards:(Some 2) ~duration:1.0 () in
  Alcotest.(check bool) "repeatable" true (String.equal a b)

(* --- end-to-end golden runs through the scenario driver -------------- *)

(* The real contract: `mrdetect simulate --shards K` is byte-identical
   for every K — report text, typed journal, everything the user sees.
   Capture stdout through the same dup2 dance the telemetry tests use,
   and fold the journal file in. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let with_captured_stdout f =
  let path = Filename.temp_file "shard_stdout" ".txt" in
  let oc = open_out path in
  let backup = Unix.dup Unix.stdout in
  flush stdout;
  Unix.dup2 (Unix.descr_of_out_channel oc) Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 backup Unix.stdout;
      Unix.close backup;
      close_out oc)
    f;
  let s = read_file path in
  Sys.remove path;
  s

let simulate_digest ~topo ~protocol ?faults ~shards () =
  let journal = Filename.temp_file "shard_journal" ".jsonl" in
  let out =
    with_captured_stdout (fun () ->
        Experiments.Simulate.run
          (Experiments.Simulate.Config.make_exn ~protocol ~duration:12.0 ~seed:7
             ~flows:6 ~journal ?faults ~shards topo))
  in
  let j = read_file journal in
  Sys.remove journal;
  out ^ "--journal--\n" ^ j

(* [recorded], when given, pins the run against MD5 digests captured
   from the seed engine (pre-pooling, pre-flat-heap): the classic K=0
   digest and the sharded K>=1 digest.  The optimized engine must
   reproduce the seed's reports and journals bit-for-bit for every K —
   recycling, flat events and batched synchronization are pure
   mechanics, never observable. *)
let check_k_invariant name ~topo ~protocol ?faults ?recorded () =
  (match recorded with
  | None -> ()
  | Some (classic_hex, _) ->
      let classic = simulate_digest ~topo ~protocol ?faults ~shards:0 () in
      Alcotest.(check string)
        (name ^ ": K=0 matches the recorded seed digest")
        classic_hex
        (Digest.to_hex (Digest.string classic)));
  let reference = simulate_digest ~topo ~protocol ?faults ~shards:1 () in
  Alcotest.(check bool)
    (name ^ ": non-trivial run")
    true
    (String.length reference > 500);
  (match recorded with
  | None -> ()
  | Some (_, sharded_hex) ->
      Alcotest.(check string)
        (name ^ ": K=1 matches the recorded seed digest")
        sharded_hex
        (Digest.to_hex (Digest.string reference)));
  List.iter
    (fun k ->
      let got = simulate_digest ~topo ~protocol ?faults ~shards:k () in
      Alcotest.(check bool)
        (Printf.sprintf "%s: K=%d byte-identical to K=1" name k)
        true
        (String.equal reference got))
    [ 2; 4 ]

let test_golden_ring_fatih () =
  check_k_invariant "ring8/fatih" ~topo:Experiments.Simulate.Ring ~protocol:"fatih" ()

let test_golden_abilene_chi () =
  check_k_invariant "abilene/chi" ~topo:Experiments.Simulate.Abilene ~protocol:"chi"
    ~recorded:
      ( "9b6bdd95e53f33ec11f0d32be6056d78" (* classic, seed engine *),
        "7632a9edaaf0a00127a1ba17db4be606" (* sharded, any K *) )
    ()

let test_golden_chaos_faults () =
  (* Under a gentle chaos plan (benign flaps and a crash), the oracle
     line and every journaled fault record must also be K-invariant. *)
  let g = Topology.Generate.ring ~n:8 in
  let schedule =
    Faults.Chaos.generate ~seed:5 ~graph:g ~duration:12.0
      ~budget:Faults.Chaos.gentle_budget ()
  in
  let path = Filename.temp_file "shard_faults" ".txt" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Faults.Schedule.to_string schedule));
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      check_k_invariant "ring8/fatih/chaos" ~topo:Experiments.Simulate.Ring
        ~protocol:"fatih" ~faults:path
        ~recorded:
          ( "d0941d928d0d1cb8318bc0378b0f3647" (* classic, seed engine *),
            "8c39d490fe34bbca97ded1f1d9391730" (* sharded, any K *) )
        ())

(* `mrdetect simulate --trace 20`: the attacker's last 20 wire and
   router events, one rendered line each, after the report.  Digests
   recorded before the trace journal moved into Simulate, for the
   classic engine and the sharded engine. *)
let test_golden_trace () =
  List.iter
    (fun (shards, hex) ->
      let out =
        with_captured_stdout (fun () ->
            Experiments.Simulate.run
              (Experiments.Simulate.Config.make_exn ~protocol:"fatih" ~duration:12.0
                 ~seed:7 ~flows:6 ~trace:20 ~shards Experiments.Simulate.Ring))
      in
      Alcotest.(check string)
        (Printf.sprintf "K=%d --trace 20 stdout matches the recorded digest" shards)
        hex
        (Digest.to_hex (Digest.string out));
      let rec dump = function
        | [] -> Alcotest.failf "K=%d: no trace header" shards
        | "last 20 events at router 2:" :: rest -> List.filter (( <> ) "") rest
        | _ :: rest -> dump rest
      in
      let lines = dump (String.split_on_char '\n' out) in
      Alcotest.(check int) (Printf.sprintf "K=%d: bounded to 20 lines" shards) 20
        (List.length lines);
      let time l = float_of_string (List.hd (String.split_on_char ' ' (String.trim l))) in
      let times = List.map time lines in
      Alcotest.(check bool) (Printf.sprintf "K=%d: chronological" shards) true
        (List.sort compare times = times))
    [ (0, "87b610cc1d3fdafd7fea5a8e0bc79bd9"); (2, "7f2d799f33e2eb31f7218603ad607c5b") ]

(* Cross-shard outbox delivery must reproduce the single-heap order
   even when K does not divide the ring: every cut link is cross-shard
   on one side and not the other, so any ordering bug shows up as a
   journal diff. *)
let test_mailbox_order_matches_single_heap () =
  let a = run_scenario ~shards:(Some 1) ~duration:2.0 () in
  let b = run_scenario ~shards:(Some 3) ~duration:2.0 () in
  Alcotest.(check bool) "K=3 equals K=1" true (String.equal a b)

let test_shard_validation () =
  let g = Topology.Generate.ring ~n:4 in
  Alcotest.(check bool) "too many shards rejected" true
    (match Net.create ~shards:5 g with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative epoch rejected" true
    (match Net.create ~shards:2 ~epoch:0.0 g with
    | exception Invalid_argument _ -> true
    | _ -> false)

let () =
  Alcotest.run "shard"
    [ ( "prioq",
        [ Alcotest.test_case "no stale refs after grow+pop" `Quick
            test_prioq_no_stale_refs ] );
      ( "partition",
        [ Alcotest.test_case "covers, balanced, deterministic" `Quick test_partition ] );
      ( "engine",
        [ Alcotest.test_case "K in {1,2,4} byte-identical" `Quick test_shard_k_invariance;
          Alcotest.test_case "consecutive runs identical" `Quick
            test_shard_sequential_repeatable;
          Alcotest.test_case "K=3 matches single heap" `Quick
            test_mailbox_order_matches_single_heap;
          Alcotest.test_case "shard-count validation" `Quick test_shard_validation ] );
      ( "golden",
        [ Alcotest.test_case "ring8 fatih K-invariant" `Quick test_golden_ring_fatih;
          Alcotest.test_case "abilene chi K-invariant" `Quick test_golden_abilene_chi;
          Alcotest.test_case "chaos faults K-invariant" `Quick
            test_golden_chaos_faults;
          Alcotest.test_case "simulate --trace pinned" `Quick test_golden_trace ] ) ]
