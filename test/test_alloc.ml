(* Allocation-regression suite (@alloc).

   The zero-allocation work pins the simulator's steady-state cost: the
   ring8 reference scenario recorded 62.97 minor words per event at the
   seed; the flat event heap, ring queues, packet pooling, box-free
   scheduling and popping, the in-place jitter draw, tagged traffic
   sources and a mint that boxes neither its time nor its payload hold
   it at 0.94, and folding each hop's processing jitter into its arrival
   event then cut the events themselves by a third.  The ring8 budgets
   are words per hop (serializations started), which that fold does
   not move; the history quoted beside them is in words per event,
   measured while the scenario ran 2.59 events per hop in its steady
   window (multiply by 2.59 for words per hop), and each ceiling stands
   at its words-per-event value times 2.59, the same word budget, or
   lower.  Each ceiling sits at most 15% above its measured count,
   which is less than one float box (two words) per hop: a
   reintroduced per-hop box fails the suite ([Gc.minor_words] deltas are a deterministic
   count of allocation, not a timing).  Event counts are deterministic
   too, and are gated exactly: an extra event per hop fails at once.

   Every network recycles its packets, so the suite also proves the
   pool actually recycles on the reference scenario, that poison mode
   catches an injected use-after-free and a double release at the pool
   boundary, and that pooled, poisoned runs of the detectors, the
   probe and the library's apps read exactly what they read before
   pooling was unconditional: their digests were recorded from runs
   that never recycled a packet, and re-recorded once when the jitter
   fold changed the random draw order. *)

open Netsim

(* The ring8 reference scenario: six CBR pairs and one TCP connection
   over five simulated seconds. *)
let ring8_horizon = 5.0

let ring8_net ?(install = fun net g -> Net.use_routing net (Topology.Routing.compute g))
    ?poison () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 ?poison g in
  install net g;
  List.iter
    (fun (s, d) ->
      ignore
        (Flow.cbr net ~src:s ~dst:d ~rate_pps:200.0 ~size:500 ~start:0.0
           ~stop:ring8_horizon))
    [ (0, 4); (4, 0); (1, 5); (5, 1); (2, 6); (6, 2) ];
  ignore (Tcp.connect net ~src:0 ~dst:3 ());
  net

let hops net =
  let acc = ref 0 in
  for r = 0 to Topology.Graph.size (Net.graph net) - 1 do
    List.iter (fun i -> acc := !acc + Iface.tx_packets i) (Router.ifaces (Net.router net r))
  done;
  !acc

(* Words allocated per hop over the tail of a ring8 reference run, and
   its events per hop: the first simulated second is warm-up (pools
   filling, rings and journals growing), the remaining four are the
   steady state the budget applies to. *)
let ring8_run ?install () =
  let net = ring8_net ?install () in
  Net.run ~until:1.0 net;
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let e0 = Net.events_processed net and h0 = hops net in
  Net.run ~until:ring8_horizon net;
  let m1 = Gc.minor_words () in
  let h = max 1 (hops net - h0) in
  let events_per_hop = float_of_int (Net.events_processed net - e0) /. float_of_int h in
  ((m1 -. m0) /. float_of_int h, Net.events_processed net, Net.pool_stats net, events_per_hop)

(* 2.71 words per hop measured, all of them the TCP connection's (the
   six CBR pairs alone allocate 122 words in the window); 2.43 before
   the jitter fold, whose new draw order changed the connection's
   course.  In words per event: 0.94, against 1.31 while each minted
   packet boxed its int64 payload, 1.56 while it also boxed its
   creation time, 4.90 while each pop boxed its sifted time, each
   jitter draw its result and each CBR tick its clock reading and gap,
   and 3.18 (under a 3.6 ceiling) when a network could run without a
   pool. *)
let events_per_hop_before_fold = 2.5852
let ring8_ceiling = 1.08 *. events_per_hop_before_fold

(* At least: the seed ran no fewer events per hop. *)
let seed_words_per_hop = 62.97 *. events_per_hop_before_fold

(* The events the reference scenario executes, pinned exactly (150,240
   while each jittered hop paid a post-jitter enqueue event), and its
   steady-state events per hop: 1.78 measured, against 2.59 before the
   fold; the ceiling is 4.5% above it. *)
let ring8_events = 103_189
let ring8_events_per_hop_ceiling = 1.86

let test_steady_state_budget () =
  let w, events, stats, per_hop = ring8_run () in
  Alcotest.(check int) "the recorded event count" ring8_events events;
  Alcotest.(check bool)
    (Printf.sprintf "%.3f events per hop under %.2f" per_hop ring8_events_per_hop_ceiling)
    true
    (per_hop < ring8_events_per_hop_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f w/hop under %.2f ceiling" w ring8_ceiling)
    true (w < ring8_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f w/hop at least halves the seed's %.1f" w seed_words_per_hop)
    true
    (w < seed_words_per_hop /. 2.0);
  (* The budget must be met by recycling, not by a quiet pool. *)
  Alcotest.(check bool)
    (Printf.sprintf "pool recycled %d of %d acquisitions" stats.Pool.recycled
       (stats.Pool.recycled + stats.Pool.fresh))
    true
    (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* The bare forwarding plane at ISP scale, as perfbench's fwd-sprint315
   row runs it: the Sprintlink shape, 256 CBR pairs of 80 pps x 500 B
   drawn from the row's input seed, 200 us jitter.  A hop
   costs one heap event, its arrival, and no box (the transmission end is lazy,
   the receiving router's jitter is folded into the arrival,
   times travel in flat boxes, a pop passes no float, the jitter is
   drawn in place, the interface lookup is an array read, a recycled
   mint hashes its payload into the packet's own bytes), so a hop
   allocates nothing once the pool is warm.  0 words measured, against
   0.98 while each mint boxed the packet's 3-word int64 payload, 1.63
   while it also boxed the packet's creation time, 10.8 while each pop
   boxed its sifted time, each
   jitter draw its result and each CBR tick and packet mint their
   times, and 31.9 when every
   hop boxed its scheduling times, hashed its interface lookup and
   pushed a transmission-end event.  Words per hop (packet-hops:
   serializations started) over seconds 1-3, after a second of warm-up. *)
let sprintlink_words_per_hop () =
  let g = Topology.Generate.sprintlink_like () in
  let n = Topology.Graph.size g in
  let net = Net.create ~seed:1 ~jitter_bound:200e-6 g in
  Net.use_routing net (Topology.Routing.compute g);
  let rng = Random.State.make [| 1; 0xbe4c |] in
  let seen = Hashtbl.create 256 in
  while Hashtbl.length seen < 256 do
    let src = Random.State.int rng n and dst = Random.State.int rng n in
    if src <> dst && not (Hashtbl.mem seen (src, dst)) then begin
      Hashtbl.add seen (src, dst) ();
      ignore (Flow.cbr net ~src ~dst ~rate_pps:80.0 ~size:500 ~start:0.0 ~stop:20.0)
    end
  done;
  Net.run ~until:1.0 net;
  let h0 = hops net and e0 = Net.events_processed net in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  Net.run ~until:3.0 net;
  let m1 = Gc.minor_words () in
  let h = float_of_int (hops net - h0) in
  ( (m1 -. m0) /. h,
    float_of_int (Net.events_processed net - e0) /. h,
    Net.pool_stats net )

let sprintlink_ceiling = 0.1

(* A hop is its arrival event, and a packet's first hop rides on its
   source's tick: 1.45 events per hop measured (the 0.45 is the
   transmission ends a waiting packet needs), against 2.45 while every
   jittered hop paid a post-jitter enqueue event. *)
let sprintlink_events_per_hop_ceiling = 1.5

let test_sprintlink_hop_budget () =
  let w, per_hop, stats = sprintlink_words_per_hop () in
  Alcotest.(check bool)
    (Printf.sprintf "sprintlink %.3f words/hop under %.2f ceiling" w sprintlink_ceiling)
    true (w < sprintlink_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "sprintlink %.3f events/hop under %.2f" per_hop
       sprintlink_events_per_hop_ceiling)
    true
    (per_hop < sprintlink_events_per_hop_ceiling);
  Alcotest.(check bool) "the pool recycles" true (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* The engine's own cost per event is nothing: scheduling a tagged
   event writes scalars into the event queue, a take fills the cursor
   and the dispatch reads the payloads in place and calls the handler,
   none of them boxing a float or building a block.  1,000 events after
   a warm-up batch (the queue's arrays grown), at spread and tied
   times. *)
let tagged_heard = ref 0
let tag_count = Sim.new_tag (fun _ _ _ i -> tagged_heard := !tagged_heard + i)

let test_tagged_dispatch_no_alloc () =
  let sim = Sim.create () in
  let at = { Sim.f = 0.0 } in
  let batch () =
    for i = 1 to 1_000 do
      at.Sim.f <- (Sim.clock sim).Sim.f +. (float_of_int (i mod 7) *. 1e-3);
      Sim.schedule_ev sim ~at ~tag:tag_count ~i:1 Sim.nil Sim.nil
    done;
    Sim.run sim
  in
  batch ();
  let h0 = !tagged_heard in
  let m0 = Gc.minor_words () in
  batch ();
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check int) "1,000 events dispatched" 1_000 (!tagged_heard - h0);
  Alcotest.(check (float 0.0)) "minor words to schedule and dispatch them" 0.0 words

(* The event queue under the forwarding plane's load: [sources] sources
   on one 12.5 ms period, each tick jittered by up to 100 us and sending
   a packet over three hops of 1 to 2.5 ms, under a 5 s timer.  With 256
   sources (fwd-sprint315's pairs) the ticks cluster, so buckets
   overflow and spawn finer rungs, and the timer stretches the first
   rung over 5 s; with 16 (fatih-sprint315's) most events are inserted
   into the bottom directly, which then compacts in place.  After a
   warm-up through one timer fire (the queue's arrays grown), 6 s more,
   through the next fire, allocate nothing. *)
let hold_at = { Sim.f = 0.0 }
let hold_tick = ref 0
let hold_hop = ref 0
let hold_timer = ref 0

(* Times are written into [hold_at] in place: a float passed to a
   helper would be boxed. *)
let () =
  hold_tick :=
    Sim.new_tag (fun sim a _ i ->
        let nominal : Sim.fbox = Obj.obj a in
        nominal.f <- nominal.f +. 0.0125;
        Sim.jitter_into (Sim.rng sim) ~bound:100e-6 hold_at;
        hold_at.f <- nominal.f +. hold_at.f;
        Sim.schedule_ev sim ~at:hold_at ~tag:!hold_tick ~i a Sim.nil;
        hold_at.f <- (Sim.clock sim).f +. 1e-3 +. (float_of_int (i land 3) *. 5e-4);
        Sim.schedule_ev sim ~at:hold_at ~tag:!hold_hop ~i:3 Sim.nil Sim.nil);
  hold_hop :=
    Sim.new_tag (fun sim _ _ i ->
        if i > 1 then begin
          Sim.jitter_into (Sim.rng sim) ~bound:100e-6 hold_at;
          hold_at.f <- (Sim.clock sim).f +. 1e-3 +. hold_at.f;
          Sim.schedule_ev sim ~at:hold_at ~tag:!hold_hop ~i:(i - 1) Sim.nil Sim.nil
        end);
  hold_timer :=
    Sim.new_tag (fun sim _ _ _ ->
        hold_at.f <- (Sim.clock sim).f +. 5.0;
        Sim.schedule_ev sim ~at:hold_at ~tag:!hold_timer ~i:0 Sim.nil Sim.nil)

let test_event_queue_hold sources () =
  let sim = Sim.create () in
  for i = 0 to sources - 1 do
    hold_at.f <- 0.0;
    Sim.schedule_ev sim ~at:hold_at ~tag:!hold_tick ~i (Obj.repr { Sim.f = 0.0 }) Sim.nil
  done;
  hold_at.f <- 5.0;
  Sim.schedule_ev sim ~at:hold_at ~tag:!hold_timer ~i:0 Sim.nil Sim.nil;
  Sim.run ~until:6.0 sim;
  let e0 = Sim.events_processed sim and m0 = Gc.minor_words () in
  Sim.run ~until:12.0 sim;
  let words = Gc.minor_words () -. m0 and events = Sim.events_processed sim - e0 in
  Alcotest.(check bool) "six seconds of events" true (events > sources * 1_900);
  Alcotest.(check (float 0.0)) "minor words over them" 0.0 words

(* Fatih's response path: once a destination's state table is warm, a
   policy forwarding decision is a scan of the router's successor row
   and allocates nothing; a run forwarding through [Net.use_policy]
   stays as cheap as link-state forwarding: 0.01 words per hop
   measured; in words per event 0.00, against 0.47 while the mint
   boxed each packet's payload, 0.79 while it also boxed each packet's
   creation time and 4.74
   (under the 7.0 ceiling it then shared with link-state forwarding)
   while pops, jitter draws and ticks boxed. *)
let policy_ceiling = 0.05

let test_policy_next_hop_no_alloc () =
  let rows = 4 and cols = 4 in
  let n = rows * cols and dst = (rows * cols) - 1 in
  let g = Topology.Generate.grid ~rows ~cols in
  let pol = Topology.Policy.compute g ~forbidden:[ [ 0; 1; 2 ]; [ 5; 6 ] ] in
  ignore (Topology.Policy.next_hop_id pol ~prev:(-1) ~cur:0 ~dst);
  let hops = ref 0 in
  let m0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    let prev = (i mod (n + 1)) - 1 and cur = (i / 3) mod n in
    if Topology.Policy.next_hop_id pol ~prev ~cur ~dst >= 0 then incr hops
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.0)) "minor words over 10k warm calls" 0.0 words;
  Alcotest.(check bool) "the calls found next hops" true (!hops > 9_000)

(* ECMP keeps each (destination, router)'s candidates in one flat row,
   so a forwarding decision and a χ prediction read it and hash the
   flow: nothing is allocated.  67 words per [Qmon.predict_of_ecmp]
   call on this diamond while each call rebuilt the candidate list
   ([Graph.out_neighbors], a filter and a [List.nth]). *)
let test_ecmp_next_hop_no_alloc () =
  let g = Topology.Graph.create ~n:6 in
  List.iter
    (fun (a, b) -> Topology.Graph.add_duplex g a b)
    [ (0, 1); (1, 2); (1, 3); (2, 4); (3, 4); (4, 5) ];
  let e = Topology.Ecmp.compute g in
  let pkt = Packet.make_at ~clock:{ Sim.f = 0.0 } ~uid:1 ~src:0 ~dst:5 ~flow:0 ~size:500 Packet.Udp in
  let via = Array.make 6 0 in
  let m0 = Gc.minor_words () in
  for flow = 0 to 9_999 do
    let w = Topology.Ecmp.next_hop_id e 1 ~dst:5 ~flow in
    via.(w) <- via.(w) + 1;
    ignore (Sys.opaque_identity (Core.Qmon.predict_of_ecmp e ~router:1 pkt))
  done;
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check (float 0.0)) "minor words over 10k next hops and predictions" 0.0 words;
  Alcotest.(check bool) "both branches taken" true (via.(2) > 0 && via.(3) > 0)

let test_policy_forwarding_budget () =
  let w, _, _, _ =
    ring8_run
      ~install:(fun net g ->
        Net.use_policy net (Topology.Policy.compute g ~forbidden:[ [ 0; 1; 2 ]; [ 5; 4 ] ]))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "policy-forwarded %.3f w/hop under %.2f ceiling" w policy_ceiling)
    true (w < policy_ceiling)

(* Shortest paths run on a radix heap of (cost, node) int pairs held in
   int arrays, so no push allocates.  Minor words of link-state routing
   over the Sprintlink shape (every destination's backward search, which
   settles the next hops with the distances), and of one cold policy
   search (the first query toward a destination, around a forbidden
   3-segment of a routed path).  32,299 routing words measured: the
   adjacency snapshot is nearly all of it (the heap's bucket index a few
   hundred; the next-hop rows, the one distance row and the heap's
   buckets go to the major heap); 32,108 while a binary heap searched, a
   rescan of every router's successors chose the next hops and every
   destination kept its distance row.
   728,587 while each next-hop scan built a closure, 2,144,627 while each
   pop of the event heap the searches used built an option, a tuple and
   a boxed float and each push boxed its cost, and 776,601 while the
   snapshot sorted its rows out of a [Seq] and looked each link's cost up
   again. *)
let minor_words f =
  let m0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. m0

let routing_ceiling = 35_000.
let policy_search_ceiling = 2_500.

let test_routing_words () =
  let g = Topology.Generate.sprintlink_like () in
  let words = minor_words (fun () -> Topology.Routing.compute g) in
  Alcotest.(check bool)
    (Printf.sprintf "sprintlink routing %.0f words under %.0f" words routing_ceiling)
    true (words < routing_ceiling)

let test_policy_search_words () =
  let g = Topology.Generate.sprintlink_like () in
  let n = Topology.Graph.size g in
  let rt = Topology.Routing.compute g in
  let src = 0 and dst = n - 1 in
  let seg =
    match Topology.Routing.path rt ~src ~dst with
    | Some (a :: b :: c :: _) -> [ a; b; c ]
    | _ -> Alcotest.fail "no routed path of three routers"
  in
  let pol = Topology.Policy.compute g ~forbidden:[ seg ] in
  let hop = ref (-1) in
  let words =
    minor_words (fun () -> hop := Topology.Policy.next_hop_id pol ~prev:(-1) ~cur:src ~dst)
  in
  Alcotest.(check bool) "the search finds a next hop" true (!hop >= 0);
  Alcotest.(check bool)
    (Printf.sprintf "cold policy search %.0f words under %.0f" words policy_search_ceiling)
    true (words < policy_search_ceiling)

(* One destination's policy table is one word per directed link: a
   Sprintlink table (1,944 links) is an array too big for the minor
   heap, so it lands in the major heap's direct allocations.  A search
   toward another destination first fills the policy's radix heap (its
   bucket rows, shared by every later search), so the
   cold search measured adds its table alone: 1,945 words measured,
   against 99,226 while the table was indexed by u * n + v. *)
let major_words f =
  Gc.full_major ();
  let _, _, m0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, _, m1 = Gc.counters () in
  m1 -. m0

let test_policy_table_words () =
  let g = Topology.Generate.sprintlink_like () in
  let n = Topology.Graph.size g and links = Topology.Graph.link_count g in
  let rt = Topology.Routing.compute g in
  let src = 0 and dst = n - 1 in
  let seg =
    match Topology.Routing.path rt ~src ~dst with
    | Some (a :: b :: c :: _) -> [ a; b; c ]
    | _ -> Alcotest.fail "no routed path of three routers"
  in
  let pol = Topology.Policy.compute g ~forbidden:[ seg ] in
  ignore (Topology.Policy.next_hop_id pol ~prev:(-1) ~cur:dst ~dst:src);
  let words =
    major_words (fun () -> Topology.Policy.next_hop_id pol ~prev:(-1) ~cur:src ~dst)
  in
  let ceiling = 4.0 *. float_of_int links in
  Alcotest.(check bool)
    (Printf.sprintf "one table %.0f major words under 4 x %d links" words links)
    true (words <= ceiling)

(* Fatih's deployment on Sprintlink: the 14,882-segment family, its
   numbering and the collector's arrays and keys.  530,811 major words
   measured; 518,406 before the walk marked the (router, destination)
   states it passed; 563,797 while the family walk deduplicated through a
   hash table of window-list buckets and the numbering and link tables
   were stdlib hash tables, and 707,776 while the family went through
   two list-keyed tables (the family's, then [Seg_index.create]'s). *)
let fatih_deploy_ceiling = 560_000.

(* The family walk alone: one byte per (router, destination) state it
   has walked, its flat window store and slot table (sized from the
   degrees, so Sprintlink's 3-windows fit without a doubling), then the
   lists.  144,111 major words measured; 131,706 before the state bytes
   (12,405 words), 239,485 while it deduplicated through a hash table of
   window-list buckets. *)
let pik2_family_ceiling = 148_000.

let test_pik2_family_words () =
  let rt = Topology.Routing.compute (Topology.Generate.sprintlink_like ()) in
  let count = ref 0 in
  let words =
    major_words (fun () -> count := List.length (Topology.Segments.pik2_family rt ~k:1))
  in
  Alcotest.(check int) "segments" 14_882 !count;
  Alcotest.(check bool)
    (Printf.sprintf "pik2 family %.0f major words under %.0f" words pik2_family_ceiling)
    true (words < pik2_family_ceiling)

let test_fatih_deploy_words () =
  let g = Topology.Generate.sprintlink_like () in
  let net = Net.create ~seed:1 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let words = major_words (fun () -> Core.Fatih.deploy ~net ~rt ()) in
  Alcotest.(check bool)
    (Printf.sprintf "fatih deploy %.0f major words under %.0f" words fatih_deploy_ceiling)
    true (words < fatih_deploy_ceiling)

(* The keyed fingerprint: the SipHash state stays unboxed, so a warm
   call allocates only its boxed int64 result (3 words), and nothing at
   all when the result is written into a buffer, as the hop path writes
   it.  A kernel that boxes its state pays 3 words per SipRound
   assignment, ~951 per fingerprint. *)
let words_per_call f =
  ignore (f ());
  let calls = 10_000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. m0) /. float_of_int calls

(* The probe's flight recorder once it has wrapped: each interface or
   router event is stored as scalars into the slot it evicts, so
   recording allocates nothing, with the always-on stats fed alongside.
   Before the journal became flat arrays each record refilled a slot
   record in place, through the ring's per-record domain check. *)
let test_wrapped_journal_no_alloc () =
  let probe = Probe.create ~journal_capacity:256 () in
  Probe.set_stats probe (Some (Stats.create ~n:4 []));
  let clock = { Sim.f = 0.0 } in
  let pkt =
    Packet.make_at ~clock ~uid:7 ~src:0 ~dst:3 ~flow:2 ~size:1500
      (Packet.Tcp { seq = 1000; ack = 77; syn = false; fin = true })
  in
  let iface = { Net.clock; router = 1; next = 2; kind = Iface.Enqueued; pkt; arg = 0.0 } in
  let router = { Net.clock; router = 2; next = 3; kind = Router.Malicious_delay; pkt; arg = 0.25 } in
  let kinds = Iface.[| Enqueued; Transmit_start; Delivered |] and i = ref 0 in
  let record () =
    clock.Sim.f <- clock.Sim.f +. 1e-4;
    iface.Net.kind <- kinds.(!i mod 3);
    incr i;
    Probe.on_iface probe iface;
    Probe.on_router probe router
  in
  for _ = 1 to 256 do
    record ()
  done;
  let w = words_per_call record in
  Alcotest.(check (float 0.0)) "words per wrapped iface + router record" 0.0 w;
  let j = Probe.journal probe in
  Alcotest.(check int) "every record offered is counted" (2 * (256 + 10_001))
    (Telemetry.Journal.total j);
  Alcotest.(check int) "the ring keeps its capacity" 256 (Telemetry.Journal.retained j)

let test_fingerprint_no_alloc () =
  let key = Crypto_sim.Siphash.key_of_string "alloc" in
  let udp =
    Packet.make_at ~clock:{ Sim.f = 0.0 } ~uid:41 ~src:0 ~dst:7 ~flow:3 ~size:500 Packet.Udp
  in
  let tcp =
    Packet.make_at ~clock:{ Sim.f = 0.0 } ~uid:42 ~src:7 ~dst:0 ~flow:4 ~size:1500
      (Packet.Tcp { seq = 1000; ack = 77; syn = false; fin = true })
  in
  let words = [ 41L; 0L; 7L; 3L; 500L; 0x5eedL; 0L ] in
  List.iter
    (fun (name, f) ->
      let w = words_per_call f in
      Alcotest.(check bool) (Printf.sprintf "%s: %.2f words per call <= 3" name w) true
        (w <= 3.0))
    [ ("udp fingerprint", fun () -> Packet.fingerprint key udp);
      ("tcp fingerprint", fun () -> Packet.fingerprint key tcp);
      ("hash_int64s on a prebuilt list", fun () -> Crypto_sim.Siphash.hash_int64s key words) ]

let test_fingerprint_into_no_alloc () =
  let key = Crypto_sim.Siphash.key_of_string "alloc" in
  let buf = Bytes.create 16 in
  List.iter
    (fun proto ->
      let p =
        Packet.make_at ~clock:{ Sim.f = 0.0 } ~uid:41 ~src:0 ~dst:7 ~flow:3 ~size:500 proto
      in
      let w = words_per_call (fun () -> Packet.fingerprint_into key p buf 8) in
      Alcotest.(check (float 0.0)) "words per fingerprint into a buffer" 0.0 w;
      Alcotest.(check int64) "the fingerprint" (Packet.fingerprint key p)
        (Bytes.get_int64_ne buf 8))
    Packet.[ Udp; Tcp { seq = 1000; ack = 77; syn = false; fin = true }; Ping 3; Pong 4 ]

(* The adversary's per-packet coin hashes the packet's uid as one int
   word and gets the hash's top 53 bits back as an int: a behavior
   deciding by it allocates nothing, against 3 words while the coin
   returned the boxed int64 hash and 9 while it also built a one-word
   list and boxed the word. *)
let attacker_context () =
  { Router.clock = { Sim.f = 1.0 }; prev = 0; next_hop = 1; queue_occupancy = 0;
    queue_limit = 64_000; red = None }

let test_coin_no_alloc () =
  let ctx = attacker_context () in
  let pkt =
    Packet.make_at ~clock:ctx.Router.clock ~uid:41 ~src:0 ~dst:7 ~flow:3 ~size:500 Packet.Udp
  in
  let drop = Core.Adversary.drop_fraction ~seed:3 0.5 in
  let w = words_per_call (fun () -> drop ctx pkt) in
  Alcotest.(check (float 0.0)) "words per coin" 0.0 w

(* A modification attack returns one constant [Modify], whose mask the
   router XORs into the payload's bytes: judging and modifying a packet
   allocates nothing, on every router of the ring8 reference scenario
   — against a 3-word int64 payload per modified packet while [Modify]
   carried the new payload. *)
let test_modify_no_alloc () =
  let ctx = attacker_context () in
  let pkt =
    Packet.make_at ~clock:ctx.Router.clock ~uid:41 ~src:0 ~dst:7 ~flow:3 ~size:500 Packet.Udp
  in
  let modify = Core.Adversary.modify_fraction ~seed:3 1.0 in
  Alcotest.(check (float 0.0)) "words per judgment" 0.0
    (words_per_call (fun () -> modify ctx pkt));
  let modified = ref 0 in
  let run attack =
    let w, events, _, _ =
      ring8_run
        ~install:(fun net g ->
          Net.use_routing net (Topology.Routing.compute g);
          if attack then
            for r = 0 to 7 do
              Router.set_behavior (Net.router net r) (fun ctx pkt ->
                  match modify ctx pkt with
                  | Router.Modify _ as a ->
                      incr modified;
                      a
                  | a -> a)
            done)
        ()
    in
    (w, events)
  in
  let honest, honest_events = run false in
  let modifying, events = run true in
  Alcotest.(check int) "the same events" honest_events events;
  Alcotest.(check bool) (Printf.sprintf "packets modified (%d)" !modified) true
    (!modified > 10_000);
  Alcotest.(check (float 0.0)) "words per hop over honest" 0.0 (modifying -. honest)

(* A recycled mint allocates nothing: the network's clock goes to the
   pool as the box it is, the creation time is copied into the packet's
   own box, the payload is hashed into the packet's own bytes and the
   span windows are reset in place — against 3 words while the payload
   was a boxed int64, and 5 while the time also crossed into [Pool] as
   a float.  Each packet is addressed to its source, so it is delivered
   and recycled on the spot. *)
let test_recycled_mint () =
  let net = Net.create ~seed:1 (Topology.Generate.line ~n:2) in
  let mint () =
    Net.originate net (Net.make_packet net ~src:0 ~dst:0 ~flow:1 ~size:500 Packet.Udp)
  in
  let w = words_per_call mint in
  Alcotest.(check int) "one fresh packet" 1 (Net.pool_stats net).Pool.fresh;
  Alcotest.(check (float 0.0)) "words per recycled mint" 0.0 w

(* The segment collector's hop, warm: each hop re-mints the packet in
   place ([Packet.reinit], as the pool does), which drops its cached
   fingerprint, so the hop hashes it afresh into the collector's own 8
   bytes, and both summaries it lands in
   hash and compare it there; a Timeliness summary reads the time from
   the clock's box.  On a line of four routers, link 1 -> 2 closes
   <0,1,2> and opens <1,2,3>; 1,000 distinct packets fill both
   summaries, two rotations clear them into the next round, and the
   same packets again allocate nothing — against 3 words per hop while
   the fingerprint was a boxed int64 and 2 more under Timeliness while
   the time crossed into [Summary] as a float. *)
let test_warm_collector_hop policy () =
  let g = Topology.Generate.line ~n:4 in
  let rt = Topology.Routing.compute g in
  let index =
    Core.Seg_index.create ~rt ~key:(Crypto_sim.Siphash.key_of_string "hop") ~policy ignore
  in
  let clock = { Sim.f = 1.0 } in
  let pkt = Packet.make_at ~clock ~uid:0 ~src:0 ~dst:3 ~flow:1 ~size:500 Packet.Udp in
  let ev = { Net.clock; router = 1; next = 2; kind = Iface.Delivered; pkt; arg = 0.0 } in
  let hops () =
    let both = ref 0 in
    for uid = 1 to 1_000 do
      clock.Sim.f <- float_of_int uid;
      Packet.reinit pkt ~clock ~uid ~src:0 ~dst:3 ~flow:1 ~size:500 Packet.Udp;
      if Core.Seg_index.observe index ev = Core.Seg_index.Both then incr both
    done;
    !both
  in
  ignore (hops ());
  for _ = 1 to 2 do
    Array.iteri (fun i _ -> Core.Seg_index.rotate index i) (Core.Seg_index.states index)
  done;
  let m0 = Gc.minor_words () in
  let both = hops () in
  let words = Gc.minor_words () -. m0 in
  Alcotest.(check int) "every hop lands in both summaries" 1_000 both;
  Alcotest.(check (float 0.0)) "minor words for 1,000 warm hops" 0.0 words

(* A summary the collector recycles keeps its arrays through
   [Summary.clear]: refilled below the capacity it reached, it stores,
   finds and re-splits its fingerprints without allocating, under every
   policy that keeps identities.  1,500 distinct prebuilt fingerprints
   cross the 128, 256 and 512 bucket doublings again. *)
let test_warm_summary_observe () =
  let fps =
    Array.init 2_000 (fun i -> Int64.mul (Int64.of_int (1 + (i mod 1_700))) 0x9e3779b97f4a7c15L)
  in
  List.iter
    (fun (name, policy) ->
      let s = Core.Summary.create policy in
      Array.iter (fun fp -> Core.Summary.observe s ~fp ~size:500 ~time:1.0) fps;
      Core.Summary.clear s;
      let m0 = Gc.minor_words () in
      for i = 0 to 1_499 do
        Core.Summary.observe s ~fp:fps.(i) ~size:500 ~time:2.0
      done;
      let words = Gc.minor_words () -. m0 in
      Alcotest.(check int) (name ^ ": all observed") 1_500 (Core.Summary.packets s);
      Alcotest.(check (float 0.0)) (name ^ ": minor words for 1,500 observes") 0.0 words)
    Core.Summary.[ ("content", Content); ("order", Order); ("timeliness", Timeliness) ]

(* Fatih's per-segment state costs nothing while the segment carries no
   traffic: every summary slot starts as one shared placeholder, and a
   rotation only moves summaries between slots, so an idle round walks
   all 14,882 segments of the Sprintlink shape without allocating for
   any of them: 20 words per round, as on ring8's 16 segments.  Allocating three fresh summaries
   per segment per round cost 3,080,605 words per idle Sprintlink round.
   Words per idle round, after a first round of warm-up. *)
let idle_fatih_round_words g =
  let rt = Topology.Routing.compute g in
  let net = Net.create ~seed:1 g in
  Net.use_routing net rt;
  let fatih = Core.Fatih.deploy ~net ~rt () in
  let tau = 5.0 (* Fatih's round *) in
  Net.run ~until:(tau +. 1.0) net;
  let m0 = Gc.minor_words () in
  Net.run ~until:((4.0 *. tau) +. 1.0) net;
  let words = (Gc.minor_words () -. m0) /. 3.0 in
  (words, List.length (Core.Fatih.monitored_segments fatih))

let test_fatih_idle_round () =
  let small, small_segs = idle_fatih_round_words (Topology.Generate.ring ~n:8) in
  let isp, isp_segs = idle_fatih_round_words (Topology.Generate.sprintlink_like ()) in
  Alcotest.(check bool)
    (Printf.sprintf "sprintlink: %.0f words per idle round over %d segments, under 256"
       isp isp_segs)
    true (isp < 256.0);
  Alcotest.(check bool)
    (Printf.sprintf "no more than ring8's %.0f words over %d segments" small small_segs)
    true
    (isp <= small +. 8.0)

(* Fatih's steady state on the ring8 reference scenario: the per-hop
   path finds the hop's segments through the route index, and a round
   end swaps placeholders back in.  Fatih's listener declares the two
   kinds it reads (deliveries and link-down drops), so no interface
   reports an enqueue or transmit-start for it, and the interfaces
   that report lend it one borrowed view each, and a summary stores a
   fingerprint unboxed in flat arrays recycled from round to round,
   and the view's time is the clock it holds, and the collector hashes
   each fingerprint into its own bytes: 2.79 words per hop measured
   (2.50 before the jitter fold changed the TCP connection's course);
   in words per event 0.97, against 2.50 while the fingerprint and
   each mint's payload were boxed int64s, 3.52 while each view stored the time in a float
   box and each mint boxed its packet's creation time, 7.73 while
   summaries kept boxed keys in a stdlib [Hashtbl] and each round built
   fresh ones,
   11.07 while pops, jitter draws and CBR ticks
   boxed their floats, 13.78 while each event built its own record,
   20.86 while every interface built every kind for it, 23.40 while
   any listener switched the pool off, and 39.4 with the list-keyed
   lookup and per-round summaries. *)
let fatih_ceiling = 1.1 *. events_per_hop_before_fold

let test_fatih_hop_budget () =
  let w, _, _, _ =
    ring8_run
      ~install:(fun net g ->
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        ignore (Core.Fatih.deploy ~net ~rt ()))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "fatih ring8 %.2f w/hop under %.2f ceiling" w fatih_ceiling)
    true (w < fatih_ceiling)

(* The same run with a Byzantine plan armed (no router given a role):
   the interior router's claim is built from the closing terminal's
   received summary, so a closing hop fills no summary beyond the one
   it fills without a plan.  18.52 words per hop measured (18.22 before
   the jitter fold); in words per event 7.04 (the
   interior's two claim digests still list each summary's
   fingerprints), against 8.58 while fingerprints and payloads were
   boxed int64s, 9.59 while views and mints boxed their times,
   11.78 while summaries kept boxed keys in a
   stdlib [Hashtbl] and validation listed both summaries each round,
   15.12 while pops, jitter draws and CBR ticks boxed their floats,
   17.83 while each event built its own record and 18.93 while the
   interior kept a duplicate summary filled hop for hop with what
   [received] gets. *)
let byz_fatih_ceiling = 8.05 *. events_per_hop_before_fold

let test_byz_fatih_hop_budget () =
  let w, _, _, _ =
    ring8_run
      ~install:(fun net g ->
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        let byz = Core.Byz.create ~seed:1 ~n:(Topology.Graph.size g) ~roles:[] () in
        ignore (Core.Fatih.deploy ~net ~rt ~byz ()))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "byzantine-plan fatih ring8 %.2f w/hop under %.2f ceiling" w
       byz_fatih_ceiling)
    true (w < byz_fatih_ceiling)

(* χ on the ring8 reference scenario: the monitor listens to
   the queue ⟨1, 2⟩ and router 1's in-links only, so the rest of the
   ring stays on the unobserved path and the pool keeps recycling; the
   monitor stores each report in flat buffers, and each listener
   declares the kinds it reads, so an in-link reports only its
   deliveries, through the interface's one borrowed view, whose time
   is the clock it holds, and each report is fingerprinted straight
   into its buffer slot, and the reports, which reach the monitor out
   of time order, are sorted in place.  5.85 words per hop measured
   (5.57 before the jitter fold changed the TCP connection's course),
   under a ceiling of 6.7: the 2.65 per event it had, times 2.59, is
   6.85, tightened to stay within 15%.  In words per event: 2.34; 2.99
   while the fingerprints and payloads were boxed int64s, 3.70 while
   views and mints boxed their times and the attacker built a context
   per packet, 7.05 while pops, jitter draws and CBR ticks
   boxed their floats, 8.39 while each event built its own record,
   10.75 while the watched interfaces built every kind, and 28.35 when
   one χ listener turned on events everywhere, switched the pool off
   and kept its reports as lists of records. *)
let chi_ceiling = 6.7

let test_chi_hop_budget () =
  let w, _, stats, _ =
    ring8_run
      ~install:(fun net g ->
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        ignore (Core.Chi.deploy ~net ~rt ~router:1 ~next:2 ()))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "chi ring8 %.2f w/hop under %.2f ceiling" w chi_ceiling)
    true (w < chi_ceiling);
  Alcotest.(check bool) "the pool recycles under χ" true
    (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* A χ round walks its arrivals and departures in flat buffers and
   builds records only for losses, so without loss its allocation does
   not depend on how many packets crossed the queue: the round at
   800 pps allocates no more than the one at 100 pps (149 and 141
   words measured; 12,732 and 127,432 when a round partitioned, sorted
   and merged lists of entry records).  Each measured
   window holds one round tick (the clock runs from just before the
   tick to the tick), averaged over four post-learning rounds. *)
let chi_round_words ~rate_pps =
  let g = Topology.Graph.create ~n:3 in
  Topology.Graph.add_duplex g 0 1;
  Topology.Graph.add_duplex g 1 2;
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Core.Chi.default_config with Core.Chi.tau = 1.0; learning_rounds = 2 } in
  let chi = Core.Chi.deploy ~net ~rt ~router:1 ~next:2 ~config () in
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps ~size:500 ~start:0.0 ~stop:10.0);
  let words = ref 0.0 in
  for tick = 4 to 7 do
    let at = float_of_int tick in
    Net.run ~until:(at -. 1e-7) net;
    let m0 = Gc.minor_words () in
    Net.run ~until:at net;
    words := !words +. (Gc.minor_words () -. m0)
  done;
  let judged = List.filter (fun r -> not r.Core.Chi.learning) (Core.Chi.reports chi) in
  let arrivals = List.fold_left (fun acc r -> acc + r.Core.Chi.arrivals) 0 judged in
  let losses = List.fold_left (fun acc r -> acc + List.length r.Core.Chi.losses) 0 judged in
  (!words /. 4.0, arrivals / max 1 (List.length judged), losses)

let test_chi_round_flat () =
  let low, low_arrivals, low_losses = chi_round_words ~rate_pps:100.0 in
  let high, high_arrivals, high_losses = chi_round_words ~rate_pps:800.0 in
  Alcotest.(check int) "no loss at 100 pps" 0 low_losses;
  Alcotest.(check int) "no loss at 800 pps" 0 high_losses;
  Alcotest.(check bool)
    (Printf.sprintf "%d vs %d arrivals per round" high_arrivals low_arrivals)
    true
    (high_arrivals >= 7 * low_arrivals);
  Alcotest.(check bool)
    (Printf.sprintf "round words %.0f at 800 pps within 16 of %.0f at 100 pps" high low)
    true
    (high <= low +. 16.0)

(* χ-RED's round, modelled on χ's: the replay keeps RED's EWMA in RED's
   float-only state and each arrival's flow and drop probability in
   flat buffers, reads the replay's clock in place and finds a flow's
   sums without an option, so without loss its allocation does not
   depend on how many packets crossed the queue.  100 and 102 words
   measured at 800 and 100 pps, against 33,720 and 4,525 while each
   arrival consed its (flow, probability) pair, RED's replay functions
   took and returned boxed floats and a flow's sums were boxed. *)
let chi_red_round_words ~rate_pps =
  let g = Topology.Graph.create ~n:3 in
  Topology.Graph.add_duplex g 0 1;
  Topology.Graph.add_duplex g 1 2;
  let params = Red.default_params in
  let net = Net.create ~seed:1 ~queue:(Net.Red params) ~jitter_bound:100e-6 g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let chi = Core.Chi_red.deploy ~net ~rt ~router:1 ~next:2 ~params ~tau:1.0 () in
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps ~size:500 ~start:0.0 ~stop:10.0);
  let words = ref 0.0 in
  for tick = 4 to 7 do
    let at = float_of_int tick in
    Net.run ~until:(at -. 1e-7) net;
    let m0 = Gc.minor_words () in
    Net.run ~until:at net;
    words := !words +. (Gc.minor_words () -. m0)
  done;
  let judged =
    List.filter (fun r -> not r.Core.Chi_red.learning) (Core.Chi_red.reports chi)
  in
  let arrivals = List.fold_left (fun acc r -> acc + r.Core.Chi_red.arrivals) 0 judged in
  let losses =
    List.fold_left (fun acc r -> acc + List.length r.Core.Chi_red.losses) 0 judged
  in
  (!words /. 4.0, arrivals / max 1 (List.length judged), losses)

let test_chi_red_round_flat () =
  let low, low_arrivals, low_losses = chi_red_round_words ~rate_pps:100.0 in
  let high, high_arrivals, high_losses = chi_red_round_words ~rate_pps:800.0 in
  Alcotest.(check int) "no loss at 100 pps" 0 low_losses;
  Alcotest.(check int) "no loss at 800 pps" 0 high_losses;
  Alcotest.(check bool)
    (Printf.sprintf "%d vs %d arrivals per round" high_arrivals low_arrivals)
    true
    (high_arrivals >= 7 * low_arrivals);
  Alcotest.(check bool)
    (Printf.sprintf "round words %.0f at 800 pps within 16 of %.0f at 100 pps" high low)
    true
    (high <= low +. 16.0)

(* The bare χ scenario of test_chi (Fig 6.4: three TCP sources feed
   router 3's queue toward 4, which drops a fifth of its transit after
   10 s), poisoned. *)
let chi_fig64_reports () =
  let g = Topology.Graph.create ~n:5 in
  Topology.Graph.add_duplex g ~bw:12.5e6 ~delay:0.001 0 3;
  Topology.Graph.add_duplex g ~bw:12.5e6 ~delay:0.001 1 3;
  Topology.Graph.add_duplex g ~bw:12.5e6 ~delay:0.001 2 3;
  Topology.Graph.add_duplex g ~bw:1.25e6 ~delay:0.005 3 4;
  let net = Net.create ~seed:11 ~jitter_bound:200e-6 ~poison:true g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let config = { Core.Chi.default_config with Core.Chi.tau = 1.0; learning_rounds = 4 } in
  let chi = Core.Chi.deploy ~net ~rt ~router:3 ~next:4 ~config () in
  List.iter (fun src -> ignore (Tcp.connect net ~src ~dst:4 ())) [ 0; 1; 2 ];
  Router.set_behavior (Net.router net 3)
    (Core.Adversary.after 10.0 (Core.Adversary.drop_fraction ~seed:5 0.2));
  Net.run ~until:40.0 net;
  (Core.Chi.reports chi, Core.Chi.error_samples chi, Net.pool_stats net)

let fatih_ring8_detections () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:3 ~jitter_bound:100e-6 ~poison:true g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  let fatih = Core.Fatih.deploy ~net ~rt () in
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:100.0 ~size:500 ~start:0.0 ~stop:20.0))
    [ (0, 3); (3, 0); (1, 4); (4, 1); (7, 2); (2, 7) ];
  Router.set_behavior (Net.router net 2)
    (Core.Adversary.after 4.0 (Core.Adversary.drop_fraction ~seed:5 0.2));
  Net.run ~until:20.0 net;
  (Core.Fatih.detections fatih, Net.pool_stats net)

let md5 s = Digest.to_hex (Digest.string s)
let md5_lines lines = md5 (String.concat "\n" lines)

(* A digest of plain data (records, lists, ints, floats bit for bit):
   two values have the same one exactly when they are structurally
   equal. *)
let value_md5 v = md5 (Marshal.to_string v [ Marshal.No_sharing ])

(* Poison oracle for borrowed packets: in poison mode, a listener that
   kept a packet past its callback would read the poison stamp (uid
   -0xDEAD, size 0) and report something else than the run that
   recycled no packet, whose results the digests pin. *)
let test_poison_oracle_listeners () =
  let reports, errors, stats = chi_fig64_reports () in
  Alcotest.(check bool) "chi: the pool recycled" true (stats.Pool.recycled > 0);
  Alcotest.(check int) "chi: reports" 40 (List.length reports);
  Alcotest.(check int) "chi: alarms" 30
    (List.length (List.filter (fun r -> r.Core.Chi.alarm) reports));
  Alcotest.(check string) "chi: reports digest" "aaef976292211604c0afdebaa0f57be8"
    (value_md5 reports);
  Alcotest.(check int) "chi: error samples" 4581 (List.length errors);
  Alcotest.(check string) "chi: error samples digest" "8239291984874173f7ad0773f9723532"
    (value_md5 errors);
  let detections, stats = fatih_ring8_detections () in
  Alcotest.(check bool) "fatih: the pool recycled" true (stats.Pool.recycled > 0);
  Alcotest.(check int) "fatih: detections" 2 (List.length detections);
  (* Re-pinned when segments came to be numbered in family order: the
     two detections, both at 5 s, swapped places; and when the jitter
     fold changed the random draw order. *)
  Alcotest.(check string) "fatih: detections digest" "663170ca5da5fbc120e6a20a1fe61f5c"
    (value_md5 detections)

(* Every death returns its packet, observed or not: on a poisoned
   ring8 with χ on ⟨1, 2⟩ (so that queue and router 1's in-links build
   events), a router listener (so every router does), congestion,
   in-flight corruption, a link outage and an attacker, the pool takes
   back exactly the packets delivered or dropped.  An observed drop
   that skipped its release would leave the count short; one released
   twice would trip the poison check. *)
let test_observed_drops_released () =
  let g = Topology.Generate.ring ~n:8 in
  let n = Topology.Graph.size g in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 ~poison:true g in
  let rt = Topology.Routing.compute g in
  Net.use_routing net rt;
  ignore (Core.Chi.deploy ~net ~rt ~router:1 ~next:2 ());
  let router_drops = ref 0 in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with
      | Router.Malicious_drop | Router.No_route | Router.Ttl_expired ->
          incr router_drops
      | _ -> ());
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:400.0 ~size:1000 ~start:0.0 ~stop:6.0))
    [ (0, 3); (1, 3); (0, 4); (1, 4) ];
  Net.set_link_corruption net ~src:0 ~dst:1 0.02;
  let sim = Net.sim net in
  Sim.schedule sim ~delay:2.0 (fun () -> Net.fail_link net ~src:1 ~dst:2);
  Sim.schedule sim ~delay:2.2 (fun () -> Net.restore_link net ~src:1 ~dst:2);
  Router.set_behavior (Net.router net 1)
    (Core.Adversary.after 1.0 (Core.Adversary.drop_fraction ~seed:5 0.1));
  Net.run ~until:6.0 net;
  let delivered = ref 0 and iface_drops = ref 0 in
  for r = 0 to n - 1 do
    delivered := !delivered + Router.delivered_packets (Net.router net r);
    List.iter
      (fun i -> iface_drops := !iface_drops + Iface.dropped_packets i)
      (Router.ifaces (Net.router net r))
  done;
  let stats = Net.pool_stats net in
  Alcotest.(check bool) "the pool recycled under the listeners" true
    (stats.Pool.recycled > 0);
  Alcotest.(check bool)
    (Printf.sprintf "drops happened (%d iface, %d router)" !iface_drops !router_drops)
    true
    (!iface_drops > 0 && !router_drops > 0);
  Alcotest.(check int) "released = delivered + every drop"
    (!delivered + !iface_drops + !router_drops)
    stats.Pool.released

(* Observation on the ring8 reference scenario: a probe (counters,
   journal and Stats) plus one iface listener.  Each interface and
   router lends its one view to both, the journal copies the event
   into a slot it recycles once full, and a dead packet goes straight
   back to the pool, and no view or mint boxes a time or a payload:
   12.14 words per hop measured (11.86 before the jitter fold); in
   words per event 4.59, against 4.96 while each mint boxed
   its payload, 7.59 while views and mints boxed their times, 10.93
   while pops, jitter draws and CBR ticks boxed their floats, 12.71
   while each router event built its constructor block and each
   queue-depth sample boxed a float, and 21.06 while the network held
   each packet until the journal evicted its records.  Without a pool
   the same run measured 9.21 (under a 10.5 ceiling), and 33.51 when
   the journal and the listener each built their own copy. *)
let observed_ceiling = 5.25 *. events_per_hop_before_fold

let test_observed_budget () =
  let w, _, stats, _ =
    ring8_run
      ~install:(fun net g ->
        Net.set_probe net (Some (Probe.create ()));
        Net.subscribe_iface net ignore;
        Net.use_routing net (Topology.Routing.compute g))
      ()
  in
  Alcotest.(check bool) "the pool recycled" true (stats.Pool.recycled > 0);
  Alcotest.(check bool)
    (Printf.sprintf "probe + listener ring8 %.2f w/hop under %.2f ceiling" w
       observed_ceiling)
    true (w < observed_ceiling)

(* A listener costs only the kinds it reads: a network-wide listener
   for in-flight corruption, on a ring without any, leaves every
   interface on the unobserved path and the run inside the unobserved
   budget.  2.71 words per hop measured, as with no listener; in words
   per event 0.94, as with no listener, and 15.46
   when every interface built every kind for it. *)
let test_unread_kinds_free () =
  let heard = ref 0 in
  let w, _, _, _ =
    ring8_run
      ~install:(fun net g ->
        Net.subscribe_iface net ~kinds:Iface.(kinds [ Drop_corrupted ]) (fun _ ->
            incr heard);
        Net.use_routing net (Topology.Routing.compute g))
      ()
  in
  Alcotest.(check int) "no corruption, nothing heard" 0 !heard;
  Alcotest.(check bool)
    (Printf.sprintf "ring8 under an unread-kind listener %.2f w/hop under %.2f ceiling" w
       ring8_ceiling)
    true (w < ring8_ceiling)

(* A router event builds no block: the kind is a constant, the packet,
   neighbour and scalar ride on the router's one view, and the view's
   time is the clock it holds.  On the ring8 reference scenario a router
   listener that reads every kind adds nothing per event it hears —
   against one float box per event while the view stored the time, and
   that box plus the event's constructor block while router events
   carried their packet inline. *)
let test_router_event_builds_nothing () =
  let run listen =
    let heard = ref 0 in
    let net =
      ring8_net
        ~install:(fun net g ->
          Net.use_routing net (Topology.Routing.compute g);
          if listen then Net.subscribe_router net (fun _ -> incr heard))
        ()
    in
    Net.run ~until:1.0 net;
    Gc.full_major ();
    let m0 = Gc.minor_words () and h0 = !heard in
    Net.run ~until:ring8_horizon net;
    (Gc.minor_words () -. m0, !heard - h0)
  in
  let quiet, _ = run false in
  let loud, events = run true in
  Alcotest.(check bool) (Printf.sprintf "router events heard (%d)" events) true (events > 0);
  Alcotest.(check (float 0.0)) "minor words a router listener adds" 0.0 (loud -. quiet)

(* An observed hop stores no float: under a probe (its journal wrapped,
   so each record refills a slot, and its Stats) and a segment
   collector, an uncongested hop allocates nothing, the collector's
   fingerprint included (it is hashed into the collector's own bytes),
   and a delivery nothing either: its latency sample reads the clock and
   the packet's [created] in their boxes.
   A line of four routers carries one CBR flow; rounds end at 1 s and
   2 s, so from 2 s the collector refills summaries below the capacity
   they reached.  The same run unobserved is the baseline.  3 words per
   fingerprint measured while the fingerprint was a boxed int64, 630
   more over the 135 hops while each view stored its time in a float
   box, and 2 more per delivery while the latency difference was handed
   to [Hist.record] as a float. *)
let observed_hop_extra_words () =
  let run observe =
    let g = Topology.Generate.line ~n:4 in
    let rt = Topology.Routing.compute g in
    let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
    Net.use_routing net rt;
    let fingerprints = ref 0 in
    if observe then begin
      Net.set_probe net (Some (Probe.create ~journal_capacity:64 ()));
      let index =
        Core.Seg_index.create ~rt ~key:(Crypto_sim.Siphash.key_of_string "hop")
          ~policy:Core.Summary.Content ignore
      in
      Net.subscribe_iface net
        ~kinds:Iface.(kinds [ Delivered; Drop_link_down ])
        (fun ev ->
          if Core.Seg_index.observe index ev <> Core.Seg_index.Neither then incr fingerprints);
      let rotate () =
        Array.iteri (fun i _ -> Core.Seg_index.rotate index i) (Core.Seg_index.states index)
      in
      Sim.schedule (Net.sim net) ~delay:1.0 rotate;
      Sim.schedule (Net.sim net) ~delay:2.0 rotate
    end;
    ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:500 ~start:0.0 ~stop:4.0);
    Net.run ~until:2.05 net;
    Gc.full_major ();
    let m0 = Gc.minor_words () and f0 = !fingerprints in
    let d0 = Router.delivered_packets (Net.router net 3) in
    Net.run ~until:2.95 net;
    ( Gc.minor_words () -. m0,
      !fingerprints - f0,
      Router.delivered_packets (Net.router net 3) - d0 )
  in
  let plain, _, _ = run false in
  let observed, fingerprints, deliveries = run true in
  (observed -. plain, fingerprints, deliveries)

(* χ's monitor on a warm queue: each report is fingerprinted straight
   into its buffer slot.  On a line of three routers with one CBR flow
   through the queue <1,2>, a monitor whose buffers a first second grew
   (and a drain emptied) adds nothing to the next 0.9 s of the run: the
   forwarding prediction is a next-hop id, -1 for none.  360 words over
   180 announced arrivals while it returned an [int option] (a [Some] per
   arrival), and 3 more words per report while the fingerprint was a
   boxed int64. *)
let test_warm_qmon_report () =
  let run monitor =
    let g = Topology.Generate.line ~n:3 in
    let rt = Topology.Routing.compute g in
    let net = Net.create ~seed:1 ~jitter_bound:100e-6 g in
    Net.use_routing net rt;
    let q =
      if monitor then
        Some
          (Core.Qmon.attach ~net ~predict:(Core.Qmon.predict_of_routing rt ~router:1)
             ~key:(Crypto_sim.Siphash.key_of_string "qmon") ~router:1 ~next:2 ())
      else None
    in
    let arrivals horizon =
      match q with
      | Some q -> Core.Qmon.(length (drain q ~horizon).arrivals)
      | None -> 0
    in
    ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:200.0 ~size:500 ~start:0.0 ~stop:4.0);
    Net.run ~until:1.0 net;
    let first = arrivals 1.0 in
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    Net.run ~until:1.9 net;
    let words = Gc.minor_words () -. m0 in
    (words, first, arrivals 1.9)
  in
  let plain, _, _ = run false in
  let monitored, first, window = run true in
  Alcotest.(check bool)
    (Printf.sprintf "arrivals reported (%d, then %d)" first window)
    true
    (first > 150 && window > 150);
  Alcotest.(check (float 0.0)) "words a monitored run adds" 0.0 (monitored -. plain)

let test_observed_hop_stores_no_float () =
  let extra, fingerprints, deliveries = observed_hop_extra_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%d fingerprints, %d deliveries" fingerprints deliveries)
    true
    (fingerprints > 100 && deliveries > 30);
  Alcotest.(check (float 0.0)) "words an observed hop adds" 0.0 extra

(* An attacker hop builds no context: each router refills its one
   context for every packet its behavior judges, so a behavior that
   forwards everything costs exactly what [honest] costs, on every
   router of the ring8 reference scenario — against 4.14 more words
   per event (a record, a boxed time and a [Some prev] per judged
   packet) while each judgment built its own context. *)
let test_attacker_hop_builds_no_context () =
  let judged = ref 0 in
  let run behave =
    let w, events, _, _ =
      ring8_run
        ~install:(fun net g ->
          Net.use_routing net (Topology.Routing.compute g);
          if behave then
            for r = 0 to 7 do
              Router.set_behavior (Net.router net r) (fun _ _ ->
                  incr judged;
                  Router.Forward)
            done)
        ()
    in
    (w, events)
  in
  let honest, honest_events = run false in
  let forwarding, events = run true in
  Alcotest.(check int) "the same events" honest_events events;
  Alcotest.(check bool) (Printf.sprintf "packets judged (%d)" !judged) true (!judged > 10_000);
  Alcotest.(check (float 0.0)) "words per hop over honest" 0.0 (forwarding -. honest)

(* Listeners borrow the packet for their callback and leave recycling
   live, whatever their scope. *)
let test_pool_live_under_listener () =
  let g = Topology.Generate.ring ~n:4 in
  let net = Net.create ~seed:1 g in
  Net.use_routing net (Topology.Routing.compute g);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:200.0 ~size:500 ~start:0.0 ~stop:2.0);
  Net.subscribe_link net ~src:0 ~dst:1 ignore;
  Net.run ~until:1.0 net;
  let linked = (Net.pool_stats net).Pool.recycled in
  Alcotest.(check bool) "live under a link listener" true (linked > 0);
  Net.subscribe_iface net ignore;
  Net.subscribe_router net ignore;
  Net.run ~until:2.0 net;
  Alcotest.(check bool) "live under network-wide listeners" true
    ((Net.pool_stats net).Pool.recycled > linked)

let journal_jsonl probe =
  let path = Filename.temp_file "journal" ".jsonl" in
  Out_channel.with_open_bin path (Probe.write_journal probe);
  let jsonl = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  jsonl

(* The probe's journal copies what it keeps, so under a probe a
   poisoned network recycles each packet the moment it dies and the
   journal still reads as the one recorded without a pool, as
   {!Probe.describe} lines and as JSONL ({!Probe.write_journal}).  A
   journal of 512 records wraps many times; one of 65536 wraps once
   over the ring8 run. *)
let journal_of_ring8 ~capacity =
  let probe = Probe.create ~journal_capacity:capacity () in
  let net =
    ring8_net ~poison:true
      ~install:(fun net g ->
        Net.set_probe net (Some probe);
        Net.use_routing net (Topology.Routing.compute g))
      ()
  in
  Net.run ~until:ring8_horizon net;
  ( List.map Probe.describe (Telemetry.Journal.to_list (Probe.journal probe)),
    journal_jsonl probe,
    Net.pool_stats net )

let test_pool_live_under_probe () =
  List.iter
    (fun (capacity, lines_md5, jsonl_md5) ->
      let lines, jsonl, stats = journal_of_ring8 ~capacity in
      Alcotest.(check string) (Printf.sprintf "capacity %d: journal lines" capacity)
        lines_md5 (md5_lines lines);
      Alcotest.(check string) (Printf.sprintf "capacity %d: journal JSONL" capacity)
        jsonl_md5 (md5 jsonl);
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d: the pool recycled (%d)" capacity
           stats.Pool.recycled)
        true (stats.Pool.recycled > 0))
    [ (512, "bbaca1b1ea97783d301cef9f88ddeccb", "2fb0296673800fd0aff084149c704281");
      (65536, "c84c5e1bd5647905ef9ec889f7a953eb", "483e04a3d62872758e1e01353a1a1aa8") ]

(* The perfbench pi2-abilene-byz scenario, shortened: π/2 on Abilene
   under a Byzantine-budget chaos plan, a router dropping a fifth of its
   transit from 4 s, a probe and a span tracer, poisoned.  Everything a
   user reads from the run (verdicts, the oracle's score, the Stats
   document, the journal export and the `trace explain` text) must read
   as it did without a pool.  The run also reports the words it
   allocated and promoted per hop. *)
type pi2_chaos = {
  verdicts : Core.Pi2_live.detection list;
  oracle : string;
  stats : string;
  jsonl : string;
  lines : string list;
  explain : string;
  pool : Pool.stats;
  words_per_hop : float;
  promoted_per_hop : float;
}

let pi2_chaos_outputs ?(traced = true) () =
  let horizon = 12.0 in
  let g = Topology.Abilene.graph () in
  let n = Topology.Graph.size g in
  let rt = Topology.Routing.compute g in
  let net = Net.create ~seed:1 ~jitter_bound:200e-6 ~poison:true g in
  Net.use_routing net rt;
  let tracer = if traced then Some (Telemetry.Span.create ~seed:1 ()) else None in
  let probe = Probe.create ~journal_capacity:4096 ?tracer () in
  Net.set_probe net (Some probe);
  let rng = Random.State.make [| 1 |] in
  let pairs =
    List.init 32 (fun _ ->
        let s = Random.State.int rng n in
        (s, (s + 1 + Random.State.int rng (n - 1)) mod n))
  in
  List.iter
    (fun (src, dst) ->
      ignore (Flow.cbr net ~src ~dst ~rate_pps:80.0 ~size:500 ~start:0.0 ~stop:horizon))
    pairs;
  (* The router the most flows transit. *)
  let load = Array.make n 0 in
  List.iter
    (fun (src, dst) ->
      match Topology.Routing.path rt ~src ~dst with
      | Some p ->
          List.iteri
            (fun i r -> if i > 0 && i < List.length p - 1 then load.(r) <- load.(r) + 1)
            p
      | None -> ())
    pairs;
  let attacker = ref 0 in
  Array.iteri (fun r l -> if l > load.(!attacker) then attacker := r) load;
  let attack_start = horizon /. 3.0 in
  Router.set_behavior (Net.router net !attacker)
    (Core.Adversary.after attack_start (Core.Adversary.drop_fraction ~seed:1 0.2));
  let plan =
    Faults.Chaos.generate ~seed:1 ~graph:g ~duration:horizon
      ~budget:Faults.Chaos.byzantine_budget ()
  in
  ignore (Faults.Injector.apply ~probe ~net plan);
  let byz = Faults.Injector.byz ~n plan in
  let pi2 =
    Core.Pi2_live.deploy ~net ~rt ~probe ~ctrl:(Faults.Injector.ctrl plan) ?byz ()
  in
  (* From an empty minor heap, so the promotion count is the run's.
     ([Gc.counters]' minor count disagrees with [Gc.minor_words] here.) *)
  Gc.minor ();
  let p0 = (Gc.quick_stat ()).Gc.promoted_words in
  let m0 = Gc.minor_words () in
  Net.run ~until:horizon net;
  let words = Gc.minor_words () -. m0 in
  let p1 = (Gc.quick_stat ()).Gc.promoted_words in
  let hops =
    List.fold_left
      (fun acc i -> acc + Iface.tx_packets i)
      0
      (List.concat_map (fun r -> Router.ifaces (Net.router net r)) (List.init n Fun.id))
  in
  let oracle =
    Faults.Oracle.of_probe ~malicious:[ !attacker ]
      ?byzantine:(Option.map Core.Byz.routers byz)
      ?byz_stats:(Option.map Core.Byz.stats byz) ~attack_start probe
  in
  let jsonl = journal_jsonl probe in
  let lines = List.map Probe.describe (Telemetry.Journal.to_list (Probe.journal probe)) in
  let explain =
    match Option.map Telemetry.Trace_export.document tracer with
    | None -> ""
    | Some doc -> (
        match Telemetry.Trace_export.explain doc with
        | Ok text -> text
        | Error e -> Alcotest.failf "trace explain: %s" e)
  in
  { verdicts = Core.Pi2_live.detections pi2;
    oracle = Telemetry.Export.to_string (Faults.Oracle.json_report oracle);
    stats = Telemetry.Export.to_string (Netsim.Stats.to_json (Option.get (Net.stats net)));
    jsonl;
    lines;
    explain;
    pool = Net.pool_stats net;
    words_per_hop = words /. float_of_int (max 1 hops);
    promoted_per_hop = (p1 -. p0) /. float_of_int (max 1 hops) }

(* The traced run, shared by the tests that read its outputs. *)
let pi2_chaos_traced = lazy (pi2_chaos_outputs ())

let test_pi2_chaos_pooled () =
  let run = Lazy.force pi2_chaos_traced in
  Alcotest.(check bool) "the pool recycled" true (run.pool.Pool.recycled > 0);
  Alcotest.(check int) "verdicts raised" 7 (List.length run.verdicts);
  (* The verdicts and explain digests were re-pinned when segments came
     to be numbered in family order, which reordered the verdicts raised
     at 5 s and at 10 s; the oracle and Stats digests held.  All five
     were re-pinned when the jitter fold changed the random draw order:
     7 verdicts (8 before), every one true, recall 1, no α violation. *)
  Alcotest.(check string) "verdicts digest" "086d92586b6a0739397d536c52a84116"
    (value_md5 run.verdicts);
  Alcotest.(check string) "oracle score digest" "a08d194ca5b8f28b94b3e959c13fbc65"
    (md5 run.oracle);
  Alcotest.(check string) "Stats document digest" "3ebe51358e5ad00bf089a7e052dee5ae"
    (md5 run.stats);
  Alcotest.(check string) "trace explain digest" "e4b189836a081ba10171cd41cc853345"
    (md5 run.explain)

(* The same run without the span tracer (as perfbench's
   pi2-abilene-byz row runs), under its words-per-hop ceiling: the gate
   on observation's cost.  The probe copies each event into a recycled
   journal slot and the listeners borrow the interfaces' preallocated
   views, so an observed hop builds no event record, Stats records
   integer samples at the clock it reads in place, the segment
   summaries are flat and
   recycled and the attacker refills one context, and no fingerprint,
   payload or coin is a boxed int64: 4.10 words per hop measured,
   against 8.50 while they were, 18.45 while each view stored its time
   in a float box, the attacker built a context per packet and its coin
   a list,
   and each mint boxed its time, 25.79 while summaries kept boxed keys
   in a stdlib [Hashtbl], validation listed both summaries each round
   and each round built fresh summaries, 36.94 while pops,
   jitter draws and CBR ticks boxed their floats, 41.95 while each
   router event built its constructor block and each queue-depth
   sample boxed a float, and 72.66 while each event built a record, a
   payload constructor and a journal wrapper and the journal kept the
   packet alive. *)
let pi2_chaos_ceiling = 4.7

(* Words promoted to the major heap per hop on the same run, from an
   empty minor heap: 1.45 measured, against 1.72 while fingerprints,
   payloads and coins were boxed int64s, 2.05 while views and mints
   boxed their times and 7.57 while every stored fingerprint was a
   boxed key in a [Hashtbl] bucket that outlived the minor heap. *)
let pi2_chaos_promoted_ceiling = 1.65

let test_pi2_chaos_hop_budget () =
  let run = pi2_chaos_outputs ~traced:false () in
  let w = run.words_per_hop in
  Alcotest.(check bool)
    (Printf.sprintf "pi2 chaos %.2f w/hop under %.2f ceiling" w pi2_chaos_ceiling)
    true (w < pi2_chaos_ceiling);
  let p = run.promoted_per_hop in
  Alcotest.(check bool)
    (Printf.sprintf "pi2 chaos %.2f promoted w/hop under %.2f ceiling" p
       pi2_chaos_promoted_ceiling)
    true (p < pi2_chaos_promoted_ceiling)

(* A journal that has wrapped many times, pinned byte for byte: the
   pi2 chaos run's 4,096-record journal, as JSONL and as
   {!Probe.describe} lines.  The digests were recorded while the
   journal still kept the listeners' event records and the packets
   they named; the ring8 probe's 512-record journal is pinned with the
   65,536-record one above. *)
let test_wrapped_journal_golden () =
  let pi2 = Lazy.force pi2_chaos_traced in
  Alcotest.(check string) "pi2 chaos journal JSONL" "77c3441417a0b953e873118c22c02200"
    (md5 pi2.jsonl);
  Alcotest.(check string) "pi2 chaos journal lines" "f1c70adcb27bffcf5a5eb664980d4b07"
    (md5_lines pi2.lines)

(* Poison mode guards the borrowed view: a listener that makes its own
   interface emit again before it returns — here a [Transmit_start]
   listener enqueueing on the same interface — would overwrite the view
   under the consumers still to run, and raises instead. *)
let test_reentrant_emission_raises () =
  let g = Topology.Generate.line ~n:2 in
  let net = Net.create ~seed:1 ~jitter_bound:0.0 ~poison:true g in
  Net.use_routing net (Topology.Routing.compute g);
  let iface = Option.get (Net.iface net ~src:0 ~dst:1) in
  let packet () = Net.make_packet net ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp in
  Net.subscribe_link net ~src:0 ~dst:1 (fun ev ->
      match ev.Net.kind with Iface.Transmit_start -> Iface.enqueue iface (packet ()) | _ -> ());
  Alcotest.check_raises "emission into a busy view"
    (Invalid_argument "Net: emission into a view its listeners are still reading")
    (fun () -> Net.originate net (packet ()))

(* ... and the observed runs never trip it: the ring8 reference scenario
   under a probe, χ, Fatih and network-wide listeners, and the pi2
   chaos run, both poisoned. *)
let test_observed_runs_never_reenter () =
  let heard = ref 0 in
  let net =
    ring8_net ~poison:true
      ~install:(fun net g ->
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        Net.set_probe net (Some (Probe.create ~journal_capacity:512 ()));
        ignore (Core.Chi.deploy ~net ~rt ~router:1 ~next:2 ());
        ignore (Core.Fatih.deploy ~net ~rt ());
        Net.subscribe_iface net (fun _ -> incr heard);
        Net.subscribe_router net (fun _ -> incr heard))
      ()
  in
  Net.run ~until:ring8_horizon net;
  Alcotest.(check bool) "ring8: events heard" true (!heard > 0);
  let pi2 = Lazy.force pi2_chaos_traced in
  Alcotest.(check bool) "pi2 chaos: the pool recycled" true
    (pi2.pool.Pool.recycled > 0)

(* Apps borrow the delivered packet as listeners do: the router
   releases it when the node's handlers return.  The library's six
   handlers (a TCP transfer, a ping, a delivered counter and a victim
   meter on one CBR flow, stealth probes inside another, and Perlman's
   two-path delivery) share a poisoned ring8 with a router dropping a
   quarter of its transit; each reads what it read in a run that
   recycled no packet.  A handler that kept a packet would read the
   poison stamp, or a later packet minted into the same record. *)
let apps_summary () =
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:5 ~jitter_bound:100e-6 ~poison:true g in
  Net.use_routing net (Topology.Routing.compute g);
  let horizon = 6.0 in
  let tcp = Tcp.connect net ~src:0 ~dst:4 ~total_bytes:400_000 () in
  let cbr = Flow.cbr net ~src:1 ~dst:4 ~rate_pps:300.0 ~size:1000 ~start:0.0 ~stop:horizon in
  let counted = Flow.delivered_counter net ~node:4 ~flow:(Flow.flow_id cbr) in
  (* The victim meter sits at Scenario's sink, router 4. *)
  let meter =
    Experiments.Scenario.victim_meter net ~duration:horizon ~tau:1.0 (Flow.flow_id cbr)
  in
  let ping = Ping.start net ~src:2 ~dst:6 ~interval:0.05 ~start:0.1 ~stop:horizon () in
  let data = Flow.cbr net ~src:5 ~dst:0 ~rate_pps:100.0 ~size:1000 ~start:0.0 ~stop:horizon in
  let stealth =
    Core.Stealth.start ~net ~src:5 ~dst:0 ~flow:(Flow.flow_id data)
      ~key:(Crypto_sim.Siphash.key_of_string "apps") ~interval:0.1 ~start:0.2 ~stop:horizon ()
  in
  let perlman = Core.Perlman_live.create ~net ~src:5 ~dst:1 ~f:1 in
  for i = 1 to 40 do
    Sim.schedule_at (Net.sim net) ~time:(0.1 *. float_of_int i) (fun () ->
        Core.Perlman_live.send perlman ~size:600)
  done;
  Router.set_behavior (Net.router net 7)
    (Core.Adversary.after 1.0 (Core.Adversary.drop_fraction ~seed:9 0.25));
  Net.run ~until:(horizon +. 2.0) net;
  let rtts =
    String.concat ";"
      (List.map (fun (s, r) -> Printf.sprintf "%h,%h" s r) (Ping.samples ping))
  in
  let buckets =
    String.concat ","
      (List.init (Telemetry.Timeseries.used meter) (fun i ->
           string_of_int (Telemetry.Timeseries.bucket_sum meter i)))
  in
  ( Printf.sprintf
      "tcp %d acked %d retx %d timeouts; counter %d; meter %s; ping %d sent %d lost rtt %s; \
       stealth %d/%d; perlman %d/%d/%d"
      (Tcp.bytes_acked tcp) (Tcp.retransmits tcp) (Tcp.timeouts tcp) (counted ()) buckets
      (Ping.sent ping) (Ping.lost ping) (md5 rtts) (Core.Stealth.answered stealth)
      (Core.Stealth.sent stealth) (Core.Perlman_live.sent perlman)
      (Core.Perlman_live.delivered perlman)
      (Core.Perlman_live.copies_received perlman),
    Net.pool_stats net )

let test_apps_borrow_delivered () =
  let summary, stats = apps_summary () in
  Alcotest.(check bool) "the pool recycled" true (stats.Pool.recycled > 0);
  Alcotest.(check string) "every app reads as without a pool"
    "tcp 400000 acked 145 retx 1 timeouts; counter 1781; meter \
     279000,300000,300000,300000,300000,300000,2000; ping 119 sent 24 lost rtt \
     d883961466b6f9123785a6ad6e175337; stealth 39/59; perlman 40/40/74"
    summary

(* Poison mode: a released packet is stamped loudly wrong, so a stale
   holder (the injected use-after-free) reads the sentinel instead of
   plausible data, and a second release trips at the pool boundary. *)
let test_poison_catches_use_after_free () =
  let pool = Pool.create ~poison:true () in
  let p =
    Pool.acquire pool ~clock:{ Sim.f = 0.0 } ~uid:7 ~src:0 ~dst:1 ~flow:3 ~size:500
      Packet.Udp
  in
  let stale = p in
  (* The injected bug: [stale] outlives the packet's network lifetime. *)
  Pool.release pool p;
  Alcotest.(check bool) "stale reference reads poison" true
    (Pool.is_poisoned stale);
  Alcotest.(check int) "poisoned size is zero" 0 stale.Packet.size;
  Alcotest.check_raises "double release detected"
    (Failure "Pool.release: double release (packet already in the pool)")
    (fun () -> Pool.release pool p);
  (* Reacquiring heals the poison: the recycled record is fresh. *)
  let q =
    Pool.acquire pool ~clock:{ Sim.f = 1.0 } ~uid:8 ~src:1 ~dst:0 ~flow:3 ~size:200
      Packet.Udp
  in
  Alcotest.(check bool) "recycled packet is clean" false (Pool.is_poisoned q);
  Alcotest.(check bool) "recycled the same record" true (q == stale);
  let s = Pool.stats pool in
  Alcotest.(check int) "one fresh, one recycled" 1 s.Pool.fresh;
  Alcotest.(check int) "recycled count" 1 s.Pool.recycled

let test_pool_grows_and_counts () =
  let pool = Pool.create () in
  let mk uid =
    Pool.acquire pool ~clock:{ Sim.f = 0.0 } ~uid ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp
  in
  let batch = List.init 200 mk in
  List.iter (Pool.release pool) batch;
  let s = Pool.stats pool in
  Alcotest.(check int) "all fresh on a dry pool" 200 s.Pool.fresh;
  Alcotest.(check int) "all returned" 200 s.Pool.released;
  Alcotest.(check int) "all available" 200 s.Pool.available;
  let again = List.init 200 (fun i -> mk (1000 + i)) in
  let s2 = Pool.stats pool in
  Alcotest.(check int) "all served from the freelist" 200 s2.Pool.recycled;
  Alcotest.(check int) "pool drained" 0 s2.Pool.available;
  ignore again

(* Span-record recycling: once the trace ring has wrapped, each hop
   span mutates the evicted record in place instead of allocating a
   fresh record plus a Complete block.  The residual per-hop cost is
   the boxed float store into the mixed record's [time] field plus
   [fresh_id] bookkeeping — well under the ~24 words an unrecycled hop
   entry costs.  [Gc.minor_words] deltas are deterministic counts. *)
let test_span_recycling () =
  let capacity = 1024 in
  let hop sp i =
    ignore
      (Telemetry.Span.hop_span sp ~trace:1 ~name:"queue"
         ~pid:Telemetry.Span.network_pid ~tid:0 ~start:(float_of_int i *. 1e-6)
         ~finish:((float_of_int i +. 0.5) *. 1e-6)
         ~router:(i mod 8)
         ~next:((i + 1) mod 8)
         ~pkt:i)
  in
  let n = 10_000 in
  let words_per_hop ~wrapped =
    (* When [wrapped], fill past capacity first so every measured hop
       recycles; otherwise size the ring so none does. *)
    let cap = if wrapped then capacity else capacity + (3 * n) in
    let sp = Telemetry.Span.create ~capacity:cap () in
    for i = 0 to (2 * capacity) - 1 do
      hop sp i
    done;
    Gc.full_major ();
    let m0 = Gc.minor_words () in
    for i = 0 to n - 1 do
      hop sp (2 * capacity + i)
    done;
    (Gc.minor_words () -. m0) /. float_of_int n
  in
  let fresh = words_per_hop ~wrapped:false in
  let recycled = words_per_hop ~wrapped:true in
  (* The 14-word entry record plus its Complete block no longer
     allocate (22 -> 8 w/hop measured); what remains is boxed-float
     traffic at the call boundary, identical in both paths. *)
  Alcotest.(check bool)
    (Printf.sprintf "recycled %.2f w/hop saves >= 12 words vs fresh %.2f"
       recycled fresh)
    true
    (recycled <= fresh -. 12.0);
  Alcotest.(check bool)
    (Printf.sprintf "recycled residual %.2f w/hop under 10.0" recycled)
    true (recycled < 10.0)

let () =
  Alcotest.run "alloc"
    [ ( "budget",
        [ Alcotest.test_case "ring8 steady state under ceiling" `Quick
            test_steady_state_budget;
          Alcotest.test_case "sprintlink forwarding hop under ceiling" `Quick
            test_sprintlink_hop_budget;
          Alcotest.test_case "listener for an absent kind under ceiling" `Quick
            test_unread_kinds_free;
          Alcotest.test_case "router event builds no block" `Quick
            test_router_event_builds_nothing;
          Alcotest.test_case "pooling live under a listener" `Quick
            test_pool_live_under_listener;
          Alcotest.test_case "pooled probe and listener under ceiling" `Quick
            test_observed_budget;
          Alcotest.test_case "span recycling after ring wrap" `Quick
            test_span_recycling;
          Alcotest.test_case "tagged events schedule and dispatch for nothing" `Quick
            test_tagged_dispatch_no_alloc;
          Alcotest.test_case "a warm fwd-shaped event queue allocates nothing" `Quick
            (test_event_queue_hold 256);
          Alcotest.test_case "a warm sparse event queue allocates nothing" `Quick
            (test_event_queue_hold 16);
          Alcotest.test_case "warm policy next hop allocates nothing" `Quick
            test_policy_next_hop_no_alloc;
          Alcotest.test_case "an ecmp next hop allocates nothing" `Quick
            test_ecmp_next_hop_no_alloc;
          Alcotest.test_case "policy forwarding under ceiling" `Quick
            test_policy_forwarding_budget;
          Alcotest.test_case "sprintlink routing under ceiling" `Quick test_routing_words;
          Alcotest.test_case "cold policy search under ceiling" `Quick
            test_policy_search_words;
          Alcotest.test_case "sprintlink pik2 family under ceiling" `Quick
            test_pik2_family_words;
          Alcotest.test_case "sprintlink fatih deploy under ceiling" `Quick
            test_fatih_deploy_words;
          Alcotest.test_case "one policy table in the major heap" `Quick
            test_policy_table_words;
          Alcotest.test_case "packet fingerprint allocates only its result" `Quick
            test_fingerprint_no_alloc;
          Alcotest.test_case "warm summary observe allocates nothing" `Quick
            test_warm_summary_observe;
          Alcotest.test_case "idle fatih round allocates nothing per segment" `Quick
            test_fatih_idle_round;
          Alcotest.test_case "fatih hop under ceiling" `Quick test_fatih_hop_budget;
          Alcotest.test_case "fatih hop with a byzantine plan under ceiling" `Quick
            test_byz_fatih_hop_budget;
          Alcotest.test_case "chi hop under ceiling" `Quick test_chi_hop_budget;
          Alcotest.test_case "pi2 chaos hop under ceiling" `Quick
            test_pi2_chaos_hop_budget;
          Alcotest.test_case "chi round allocation flat in its arrivals" `Quick
            test_chi_round_flat;
          Alcotest.test_case "chi-red round allocation flat in its arrivals" `Quick
            test_chi_red_round_flat;
          Alcotest.test_case "an observed hop stores no float" `Quick
            test_observed_hop_stores_no_float;
          Alcotest.test_case "an attacker hop builds no context" `Quick
            test_attacker_hop_builds_no_context;
          Alcotest.test_case "a recycled mint allocates nothing" `Quick
            test_recycled_mint;
          Alcotest.test_case "adversary coin allocates nothing" `Quick
            test_coin_no_alloc;
          Alcotest.test_case "packet fingerprint into a buffer allocates nothing" `Quick
            test_fingerprint_into_no_alloc;
          Alcotest.test_case "a modified packet allocates nothing" `Quick
            test_modify_no_alloc;
          Alcotest.test_case "a warm collector hop allocates nothing" `Quick
            (test_warm_collector_hop Core.Summary.Content);
          Alcotest.test_case "a warm timeliness collector hop allocates nothing" `Quick
            (test_warm_collector_hop Core.Summary.Timeliness);
          Alcotest.test_case "a warm chi report boxes no fingerprint" `Quick
            test_warm_qmon_report;
          Alcotest.test_case "a wrapped probe journal records for nothing" `Quick
            test_wrapped_journal_no_alloc ] );
      ( "poison",
        [ Alcotest.test_case "use-after-free and double release" `Quick
            test_poison_catches_use_after_free;
          Alcotest.test_case "observed drops return to the pool" `Quick
            test_observed_drops_released;
          Alcotest.test_case "borrowed packets: pooled chi and fatih identical" `Quick
            test_poison_oracle_listeners;
          Alcotest.test_case "pooling live under a probe" `Quick
            test_pool_live_under_probe;
          Alcotest.test_case "pi2 byzantine chaos: pooled run identical" `Quick
            test_pi2_chaos_pooled;
          Alcotest.test_case "wrapped journals byte-identical" `Quick
            test_wrapped_journal_golden;
          Alcotest.test_case "re-entrant emission into a borrowed view raises" `Quick
            test_reentrant_emission_raises;
          Alcotest.test_case "observed runs never re-enter a view" `Quick
            test_observed_runs_never_reenter;
          Alcotest.test_case "apps borrow delivered packets" `Quick
            test_apps_borrow_delivered;
          Alcotest.test_case "freelist growth and counters" `Quick
            test_pool_grows_and_counts ] ) ]
