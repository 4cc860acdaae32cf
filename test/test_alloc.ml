(* Allocation-regression suite (@alloc).

   The zero-allocation work pins the simulator's steady-state cost: the
   ring8 reference scenario recorded 62.97 minor words per event at the
   seed; the flat event heap, ring queues, packet pooling and box-free
   scheduling hold it at 6.85 unpooled and 5.23 pooled.  The ceilings
   below sit about one and a half words per event (three per hop) above
   the measured values — they catch a reintroduced per-hop box, not
   run-to-run noise ([Gc.minor_words] deltas are a deterministic count
   of allocation, not a timing).

   The suite also proves the pool actually recycles on the reference
   scenario, that pooled and unpooled runs execute the identical event
   set, and that poison mode catches an injected use-after-free and a
   double release at the pool boundary. *)

open Netsim

(* Words allocated per event over the tail of a ring8 reference run:
   the first simulated second is warm-up (pools filling, rings and
   journals growing), the remaining four are the steady state the
   budget applies to. *)
let ring8_run ?(install = fun net g -> Net.use_routing net (Topology.Routing.compute g))
    ~pooling () =
  let horizon = 5.0 in
  let g = Topology.Generate.ring ~n:8 in
  let net = Net.create ~seed:1 ~jitter_bound:100e-6 ~pooling g in
  install net g;
  List.iter
    (fun (s, d) ->
      ignore
        (Flow.cbr net ~src:s ~dst:d ~rate_pps:200.0 ~size:500 ~start:0.0
           ~stop:horizon))
    [ (0, 4); (4, 0); (1, 5); (5, 1); (2, 6); (6, 2) ];
  ignore (Tcp.connect net ~src:0 ~dst:3 ());
  Net.run ~until:1.0 net;
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  let e0 = Net.events_processed net in
  Net.run ~until:horizon net;
  let m1 = Gc.minor_words () in
  let events = Net.events_processed net - e0 in
  let words_per_event = (m1 -. m0) /. float_of_int (max 1 events) in
  (words_per_event, Net.events_processed net, Net.pool_stats net)

let seed_words_per_event = 62.97
let unpooled_ceiling = 8.5
let pooled_ceiling = 7.0

let test_steady_state_budget () =
  let unpooled, events_unpooled, _ = ring8_run ~pooling:false () in
  let pooled, events_pooled, stats = ring8_run ~pooling:true () in
  (* Identical scenario, identical event set: pooling must be invisible
     to the simulation itself. *)
  Alcotest.(check int)
    "pooled run executes the identical event count" events_unpooled
    events_pooled;
  Alcotest.(check bool)
    (Printf.sprintf "unpooled %.2f w/ev under %.1f ceiling" unpooled unpooled_ceiling)
    true (unpooled < unpooled_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "pooled %.2f w/ev under %.1f ceiling" pooled pooled_ceiling)
    true (pooled < pooled_ceiling);
  Alcotest.(check bool)
    (Printf.sprintf "pooled %.2f w/ev at least halves the seed's %.2f" pooled
       seed_words_per_event)
    true
    (pooled < seed_words_per_event /. 2.0);
  (* The budget must be met by recycling, not by a quiet pool. *)
  Alcotest.(check bool)
    (Printf.sprintf "pool recycled %d of %d acquisitions" stats.Pool.recycled
       (stats.Pool.recycled + stats.Pool.fresh))
    true
    (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* The bare forwarding plane at ISP scale, as perfbench's fwd-sprint315
   row runs it: the Sprintlink shape, 256 CBR pairs of 80 pps x 500 B
   drawn from the row's input seed, 200 us jitter, pooling on.  A hop
   costs two heap events and no float box (the transmission end is
   lazy, times travel in flat boxes, the interface lookup is an array
   read): 10.8 words measured, against 31.9 when every hop boxed its
   jitter draw and scheduling times, hashed its interface lookup and
   pushed a transmission-end event.  Words per hop (packet-hops:
   serializations started) over seconds 1-3, after a second of warm-up. *)
let sprintlink_words_per_hop () =
  let g = Topology.Generate.sprintlink_like () in
  let n = Topology.Graph.size g in
  let net = Net.create ~seed:1 ~jitter_bound:200e-6 ~pooling:true g in
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
  let hops () =
    let acc = ref 0 in
    for r = 0 to n - 1 do
      List.iter (fun i -> acc := !acc + Iface.tx_packets i) (Router.ifaces (Net.router net r))
    done;
    !acc
  in
  Net.run ~until:1.0 net;
  let h0 = hops () in
  Gc.full_major ();
  let m0 = Gc.minor_words () in
  Net.run ~until:3.0 net;
  let m1 = Gc.minor_words () in
  ((m1 -. m0) /. float_of_int (hops () - h0), Net.pool_stats net)

let test_sprintlink_hop_budget () =
  let w, stats = sprintlink_words_per_hop () in
  Alcotest.(check bool) (Printf.sprintf "sprintlink %.2f words/hop under 14.0 ceiling" w) true
    (w < 14.0);
  Alcotest.(check bool) "the pool recycles" true (stats.Pool.recycled > 10 * stats.Pool.fresh)

(* Fatih's response path: once a destination's state table is warm, a
   policy forwarding decision is a scan of the router's successor row
   and allocates nothing; a run forwarding through [Net.use_policy]
   stays inside the link-state budget above. *)
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

let test_policy_forwarding_budget () =
  let pooled, _, _ =
    ring8_run ~pooling:true
      ~install:(fun net g ->
        Net.use_policy net (Topology.Policy.compute g ~forbidden:[ [ 0; 1; 2 ]; [ 5; 4 ] ]))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "policy-forwarded pooled %.2f w/ev under %.1f ceiling" pooled
       pooled_ceiling)
    true (pooled < pooled_ceiling)

(* The per-hop keyed fingerprint: the SipHash state stays unboxed, so a
   warm call allocates only its boxed int64 result (3 words).  A kernel
   that boxes its state pays 3 words per SipRound assignment, ~951 per
   fingerprint. *)
let words_per_call f =
  ignore (f ());
  let calls = 10_000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (f ()))
  done;
  (Gc.minor_words () -. m0) /. float_of_int calls

let test_fingerprint_no_alloc () =
  let key = Crypto_sim.Siphash.key_of_string "alloc" in
  let udp = Packet.make_at ~now:0.0 ~uid:41 ~src:0 ~dst:7 ~flow:3 ~size:500 Packet.Udp in
  let tcp =
    Packet.make_at ~now:0.0 ~uid:42 ~src:7 ~dst:0 ~flow:4 ~size:1500
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

(* Fatih's per-segment state costs nothing while the segment carries no
   traffic: every summary slot starts as, and returns to, one shared
   placeholder, so an idle round walks all 14,882 segments of the
   Sprintlink shape without allocating for any of them: 28 words per
   round, as on ring8's 16 segments.  Allocating three fresh summaries
   per segment per round cost 3,080,605 words per idle Sprintlink round.
   Words per idle round, after a first round of warm-up. *)
let idle_fatih_round_words g =
  let rt = Topology.Routing.compute g in
  let net = Net.create ~seed:1 g in
  Net.use_routing net rt;
  let fatih = Core.Fatih.deploy ~net ~rt () in
  let tau = Core.Fatih.default_config.Core.Fatih.tau in
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
   end swaps placeholders back in.  28.0 words per event measured; the
   list-keyed lookup and per-round summaries cost 39.4. *)
let test_fatih_hop_budget () =
  let w, _, _ =
    ring8_run ~pooling:true
      ~install:(fun net g ->
        let rt = Topology.Routing.compute g in
        Net.use_routing net rt;
        ignore (Core.Fatih.deploy ~net ~rt ()))
      ()
  in
  Alcotest.(check bool) (Printf.sprintf "fatih ring8 %.2f w/ev under 34.0 ceiling" w) true (w < 34.0)

(* Observation on the ring8 reference scenario: a probe (counters,
   journal and Stats) plus one iface listener.  Each observed event
   builds one record, which the journal keeps and the listener reads:
   22.95 words per event measured, against 33.51 when the journal and
   the listener each built their own copy. *)
let observed_ceiling = 24.5

let test_observed_budget () =
  let w, _, _ =
    ring8_run ~pooling:false
      ~install:(fun net g ->
        Net.set_probe net (Some (Probe.create ()));
        Net.subscribe_iface net ignore;
        Net.use_routing net (Topology.Routing.compute g))
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "probe + listener ring8 %.2f w/ev under %.1f ceiling" w
       observed_ceiling)
    true (w < observed_ceiling)

let test_pool_inert_when_observed () =
  (* A probe retains packets in its journal, so recycling must switch
     itself off rather than corrupt the observations. *)
  let g = Topology.Generate.ring ~n:4 in
  let net = Net.create ~seed:1 ~pooling:true g in
  Net.set_probe net (Some (Probe.create ()));
  Net.use_routing net (Topology.Routing.compute g);
  Alcotest.(check bool) "pooling suppressed under a probe" false
    (Net.pooling_active net);
  let net2 = Net.create ~seed:1 ~pooling:true g in
  Net.use_routing net2 (Topology.Routing.compute g);
  Alcotest.(check bool) "pooling live unobserved" true (Net.pooling_active net2)

(* Poison mode: a released packet is stamped loudly wrong, so a stale
   holder (the injected use-after-free) reads the sentinel instead of
   plausible data, and a second release trips at the pool boundary. *)
let test_poison_catches_use_after_free () =
  let pool = Pool.create ~poison:true () in
  let p =
    Pool.acquire pool ~now:0.0 ~uid:7 ~src:0 ~dst:1 ~flow:3 ~size:500
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
    Pool.acquire pool ~now:1.0 ~uid:8 ~src:1 ~dst:0 ~flow:3 ~size:200
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
    Pool.acquire pool ~now:0.0 ~uid ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp
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
          Alcotest.test_case "pooling inert when observed" `Quick
            test_pool_inert_when_observed;
          Alcotest.test_case "probe and listener under ceiling" `Quick
            test_observed_budget;
          Alcotest.test_case "span recycling after ring wrap" `Quick
            test_span_recycling;
          Alcotest.test_case "warm policy next hop allocates nothing" `Quick
            test_policy_next_hop_no_alloc;
          Alcotest.test_case "policy forwarding under ceiling" `Quick
            test_policy_forwarding_budget;
          Alcotest.test_case "packet fingerprint allocates only its result" `Quick
            test_fingerprint_no_alloc;
          Alcotest.test_case "idle fatih round allocates nothing per segment" `Quick
            test_fatih_idle_round;
          Alcotest.test_case "fatih hop under ceiling" `Quick test_fatih_hop_budget ] );
      ( "poison",
        [ Alcotest.test_case "use-after-free and double release" `Quick
            test_poison_catches_use_after_free;
          Alcotest.test_case "freelist growth and counters" `Quick
            test_pool_grows_and_counts ] ) ]
