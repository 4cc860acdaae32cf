(* Tests for the netsim substrate: event engine, queues, RED, interfaces,
   routers with adversarial hooks, flows, ping, and TCP Reno. *)

open Netsim
module G = Topology.Graph
module Gen = Topology.Generate
module Rt = Topology.Routing

let line_net ?(jitter_bound = 0.0) ?(queue = Net.Droptail 64000) n =
  let g = Gen.line ~n in
  let net = Net.create ~queue ~jitter_bound g in
  Net.use_routing net (Rt.compute g);
  net

(* --- Sim --- *)

let test_sim_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:2.0 (fun () -> log := "b" :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := "a" :: !log);
  Sim.schedule sim ~delay:3.0 (fun () -> log := "c" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Sim.now sim);
  Alcotest.(check int) "processed" 3 (Sim.events_processed sim)

let test_sim_fifo_ties () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () -> log := 1 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 2 :: !log);
  Sim.schedule sim ~delay:1.0 (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !log)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref 0 in
  let rec tick () =
    incr fired;
    Sim.schedule sim ~delay:1.0 tick
  in
  Sim.schedule sim ~delay:1.0 tick;
  Sim.run ~until:5.5 sim;
  Alcotest.(check int) "five ticks" 5 !fired;
  Alcotest.(check (float 1e-9)) "clock at until" 5.5 (Sim.now sim)

let test_sim_nested_scheduling () =
  let sim = Sim.create () in
  let hits = ref [] in
  Sim.schedule sim ~delay:1.0 (fun () ->
      hits := ("outer", Sim.now sim) :: !hits;
      Sim.schedule sim ~delay:0.5 (fun () -> hits := ("inner", Sim.now sim) :: !hits));
  Sim.run sim;
  match List.rev !hits with
  | [ ("outer", t1); ("inner", t2) ] ->
      Alcotest.(check (float 1e-9)) "outer" 1.0 t1;
      Alcotest.(check (float 1e-9)) "inner" 1.5 t2
  | _ -> Alcotest.fail "wrong event sequence"

let test_sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:1.0 (fun () ->
      Alcotest.(check bool) "past rejected" true
        (try
           Sim.schedule_at sim ~time:0.5 (fun () -> ());
           false
         with Invalid_argument _ -> true));
  Sim.run sim

(* A NaN delay passes [delay < 0.0] and the past-time check, and used to
   reach the heap as a NaN time: delays [1; nan; 2; 3] then ran in the
   order 1, 3, 2, nan and left the clock at nan.  Non-finite times and
   delays are rejected at every entry point instead. *)
let test_sim_rejects_non_finite () =
  let sim = Sim.create () in
  let ran = ref [] in
  List.iter
    (fun d ->
      match Sim.schedule sim ~delay:d (fun () -> ran := d :: !ran) with
      | () -> ()
      | exception Invalid_argument _ -> ())
    [ 1.0; nan; 2.0; 3.0 ];
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "finite delays run in order" [ 1.0; 2.0; 3.0 ]
    (List.rev !ran);
  Alcotest.(check (float 0.0)) "clock stays finite" 3.0 (Sim.now sim);
  let rejects name f =
    Alcotest.(check bool) (name ^ " rejected") true
      (match f () with () -> false | exception Invalid_argument _ -> true)
  in
  rejects "infinite delay" (fun () -> Sim.schedule sim ~delay:infinity ignore);
  rejects "NaN time" (fun () -> Sim.schedule_at sim ~time:nan ignore);
  rejects "infinite time" (fun () -> Sim.schedule_at sim ~time:infinity ignore);
  let net = line_net 2 in
  rejects "NaN CBR rate" (fun () ->
      ignore (Flow.cbr net ~src:0 ~dst:1 ~rate_pps:nan ~size:500 ~start:0.0 ~stop:1.0));
  rejects "NaN Poisson rate" (fun () ->
      ignore (Flow.poisson net ~src:0 ~dst:1 ~rate_pps:nan ~size:500 ~start:0.0 ~stop:1.0));
  rejects "NaN jitter bound" (fun () -> ignore (Net.create ~jitter_bound:nan (Gen.line ~n:2)));
  Alcotest.(check int) "nothing left queued" 0 (Sim.pending sim)

let test_sim_fresh_ids () =
  let sim = Sim.create () in
  let a = Sim.fresh_id sim in
  let b = Sim.fresh_id sim in
  let c = Sim.fresh_id sim in
  Alcotest.(check (list int)) "sequential" [ 0; 1; 2 ] [ a; b; c ]

(* [Sim.float_into] is the jitter draw: it must be [Random.State.float]
   bit for bit and leave the state where the library's draw leaves it,
   or every jittered run would change.  10^5 draws from each of three
   seeds, over bounds from the jitter's scale to large ones. *)
let test_sim_float_into () =
  let bounds = [| 200e-6; 100e-6; 1.0; 3.5; 1e9; 0x1.p-1000 |] in
  List.iter
    (fun seed ->
      let ours = Random.State.make [| seed; 0x51a7 |] in
      let theirs = Random.State.copy ours in
      let b = { Sim.f = 0.0 } in
      for i = 0 to 99_999 do
        let bound = bounds.(i mod Array.length bounds) in
        b.Sim.f <- bound;
        Sim.float_into ours b;
        let want = Random.State.float theirs bound in
        if Int64.bits_of_float b.Sim.f <> Int64.bits_of_float want then
          Alcotest.failf "seed %d draw %d: %h against %h" seed i b.Sim.f want
      done;
      Alcotest.(check int64)
        (Printf.sprintf "seed %d: the states agree after the draws" seed)
        (Random.State.bits64 theirs) (Random.State.bits64 ours))
    [ 1; 2; 3 ]

(* --- queues --- *)

let mk_pkt sim ?(size = 1000) () =
  Packet.make ~sim ~src:0 ~dst:1 ~flow:0 ~size Packet.Udp

let test_fifo_capacity () =
  let sim = Sim.create () in
  let q = Queue_fifo.create ~limit_bytes:2500 () in
  Alcotest.(check bool) "p1" true (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check bool) "p2" true (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check bool) "p3 rejected" false (Queue_fifo.try_enqueue q (mk_pkt sim ()));
  Alcotest.(check int) "occupancy" 2000 (Queue_fifo.occupancy q);
  ignore (Queue_fifo.dequeue q);
  Alcotest.(check bool) "fits after dequeue" true (Queue_fifo.try_enqueue q (mk_pkt sim ()))

let test_fifo_order () =
  let sim = Sim.create () in
  let q = Queue_fifo.create () in
  let p1 = mk_pkt sim () and p2 = mk_pkt sim () in
  ignore (Queue_fifo.try_enqueue q p1);
  ignore (Queue_fifo.try_enqueue q p2);
  (match Queue_fifo.dequeue q with
  | Some p -> Alcotest.(check int) "fifo head" p1.Packet.uid p.Packet.uid
  | None -> Alcotest.fail "nonempty");
  Alcotest.(check int) "len" 1 (Queue_fifo.length q)

let test_red_below_min_never_drops () =
  let sim = Sim.create () in
  let rng = Random.State.make [| 9 |] in
  let q = Red.create ~rng () in
  (* Light load: enqueue/dequeue alternating keeps avg near one packet. *)
  for i = 0 to 200 do
    (match Red.enqueue q ~clock:{ Sim.f = float_of_int i } ~link_bw:1.25e6 (mk_pkt sim ()) with
    | `Enqueued -> ()
    | `Early_drop | `Forced_drop -> Alcotest.fail "drop below min_th");
    ignore (Red.dequeue q ~clock:{ Sim.f = float_of_int i +. 0.5 })
  done

let test_red_drops_between_thresholds () =
  let sim = Sim.create () in
  let rng = Random.State.make [| 9 |] in
  let q = Red.create ~rng () in
  (* Hold the instantaneous queue at ~45000 bytes (between the 30000 and
     60000 thresholds) by pairing each arrival with a departure: the EWMA
     converges to the plateau and early drops fire at ~5% while the
     physical limit is never reached. *)
  let early = ref 0 and forced = ref 0 and admitted = ref 0 in
  let now = { Sim.f = 0.0 } in
  for _ = 0 to 44 do
    now.f <- now.f +. 0.0001;
    ignore (Red.enqueue q ~clock:now ~link_bw:1.25e6 (mk_pkt sim ()))
  done;
  for _ = 0 to 3999 do
    now.f <- now.f +. 0.0008;
    (match Red.enqueue q ~clock:now ~link_bw:1.25e6 (mk_pkt sim ()) with
    | `Enqueued ->
        incr admitted;
        ignore (Red.dequeue q ~clock:now)
    | `Early_drop -> incr early
    | `Forced_drop -> incr forced);
    if Red.occupancy q > 46000 then ignore (Red.dequeue q ~clock:now)
  done;
  Alcotest.(check bool)
    (Printf.sprintf "early drops happened (%d)" !early)
    true (!early > 50);
  Alcotest.(check int) "no forced drops" 0 !forced;
  Alcotest.(check bool) "plateau EWMA" true
    (Red.avg q > 30000.0 && Red.avg q < 60000.0)

(* The replay steps over a state holding [avg]. *)
let red_state avg = { Red.avg; idle_since = 0.0; drop_p = 0.0 }

let drop_p p ~avg ~count =
  let st = red_state avg in
  Red.early_drop_probability p st ~count;
  st.Red.drop_p

let test_red_pure_functions () =
  let p = Red.default_params in
  Alcotest.(check (float 1e-9)) "below min" 0.0 (drop_p p ~avg:10000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "above max" 1.0 (drop_p p ~avg:60001.0 ~count:0);
  let mid = drop_p p ~avg:45000.0 ~count:0 in
  Alcotest.(check (float 1e-9)) "midpoint = max_p/2" 0.05 mid;
  (* Uniformization grows with count. *)
  Alcotest.(check bool) "count grows p" true (drop_p p ~avg:45000.0 ~count:10 > mid);
  (* avg decays during idle and rises with occupancy. *)
  let st = red_state 30000.0 in
  Red.decay_avg p st ~now:{ Sim.f = 0.1 } ~link_bw:1.25e6;
  Alcotest.(check bool) "decays" true (st.Red.avg < 30000.0);
  let st = red_state 1000.0 in
  Red.update_avg p st ~occupancy:30000;
  Alcotest.(check bool) "rises" true (st.Red.avg > 1000.0)

let test_red_gentle_ramp () =
  let p = { Red.default_params with Red.gentle = true } in
  (* At max_th the base probability is max_p; halfway to 2*max_th it is
     halfway to 1; beyond 2*max_th it is certain. *)
  Alcotest.(check (float 1e-9)) "at max_th" 0.1 (drop_p p ~avg:60000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "midway" 0.55 (drop_p p ~avg:90000.0 ~count:0);
  Alcotest.(check (float 1e-9)) "beyond" 1.0 (drop_p p ~avg:120000.0 ~count:0);
  (* Non-gentle jumps to 1 at max_th. *)
  Alcotest.(check (float 1e-9)) "abrupt" 1.0
    (drop_p Red.default_params ~avg:60000.0 ~count:0)

(* --- iface timing --- *)

let test_iface_timing () =
  (* One packet of 1000 B over a 1.25e6 B/s, 10 ms link: delivery at
     1000/1.25e6 + 0.010 = 10.8 ms. *)
  let sim = Sim.create () in
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.010 0 1;
  let delivered = ref None in
  let iface =
    Iface.create ~sim ~link:(G.link_exn g 0 1) ~kind:(Iface.Droptail 64000) ~jitter_bound:0.0
      ~release:ignore
      ~on_event:(fun ev _ ->
        match ev with
        | Iface.Delivered -> delivered := Some (Sim.now sim)
        | _ -> ())
      ~deliver:(fun ~prev:_ _ -> ())
  in
  Iface.enqueue iface (mk_pkt sim ());
  Sim.run sim;
  match !delivered with
  | Some t -> Alcotest.(check (float 1e-9)) "delivery time" 0.0108 t
  | None -> Alcotest.fail "not delivered"

let test_iface_serialization () =
  (* Two packets back to back: second delivered one transmission time
     after the first. *)
  let sim = Sim.create () in
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.010 0 1;
  let times = ref [] in
  let iface =
    Iface.create ~sim ~link:(G.link_exn g 0 1) ~kind:(Iface.Droptail 64000) ~jitter_bound:0.0
      ~release:ignore
      ~on_event:(fun ev _ ->
        match ev with Iface.Delivered -> times := Sim.now sim :: !times | _ -> ())
      ~deliver:(fun ~prev:_ _ -> ())
  in
  Iface.enqueue iface (mk_pkt sim ());
  Iface.enqueue iface (mk_pkt sim ());
  Sim.run sim;
  match List.rev !times with
  | [ t1; t2 ] -> Alcotest.(check (float 1e-9)) "spacing = tx time" 0.0008 (t2 -. t1)
  | _ -> Alcotest.fail "expected two deliveries"

(* --- network-level --- *)

let test_net_end_to_end () =
  let net = line_net 4 in
  (* An app borrows the delivered packet: it keeps the TTL, not the
     packet, which dies when the handler returns. *)
  let got = ref [] in
  Net.attach_app net ~node:3 (fun pkt -> got := pkt.Packet.ttl :: !got);
  let pkt = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:3 ~flow:1 ~size:500 Packet.Udp in
  Net.originate net pkt;
  Net.run net;
  Alcotest.(check int) "delivered" 1 (List.length !got);
  Alcotest.(check int) "ttl decremented twice (transit hops)" 62 (List.hd !got)

let test_net_congestion_drops () =
  (* Offer 2x the bottleneck rate; the queue must overflow and drops must
     be congestion drops, not anything else. *)
  let net = line_net 3 in
  let congestion = ref 0 and delivered = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Drop_congestion -> incr congestion
      | Iface.Delivered -> ()
      | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  (* Link rate 1.25e6 B/s = 1250 pps of 1000 B; offer 2500 pps. *)
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:2500.0 ~size:1000 ~start:0.0 ~stop:2.0 in
  Net.run net;
  Alcotest.(check bool) "many drops" true (!congestion > 100);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !congestion)

let test_net_malicious_drop_counted () =
  let net = line_net 3 in
  let malicious = ref 0 and delivered = ref 0 in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with
      | Router.Malicious_drop ->
          (* The view names the neighbour the packet was bound for. *)
          if ev.Net.next = 2 && ev.Net.pkt.Packet.dst = 2 then incr malicious
      | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  (* Router 1 drops every 5th transit packet. *)
  let count = ref 0 in
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      if ctx.Router.prev >= 0 then begin
        incr count;
        if !count mod 5 = 0 then Router.Drop else Router.Forward
      end
      else Router.Forward);
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:1000 ~start:0.0 ~stop:1.0 in
  Net.run net;
  Alcotest.(check bool) "some malicious drops" true (!malicious > 10);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !malicious)

(* [Modify] carries a mask the router XORs into the payload in place. *)
let test_net_modification () =
  let net = line_net 3 in
  let got = ref [] in
  Net.attach_app net ~node:2 (fun pkt -> got := Packet.payload pkt :: !got);
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      if ctx.Router.prev >= 0 then Router.Modify 0x6861636bL else Router.Forward);
  let pkt = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp in
  let original = Packet.payload pkt in
  Net.originate net pkt;
  Net.run net;
  match !got with
  | [ payload ] ->
      Alcotest.(check int64) "payload overwritten" (Int64.logxor original 0x6861636bL) payload
  | _ -> Alcotest.fail "expected one delivery"

(* --- Packets --- *)

(* A clone owns its payload bytes: a modification on one multicast
   branch never reaches another. *)
let test_clone_payload_independent () =
  let clock = { Sim.f = 0.0 } in
  let p = Packet.make_at ~clock ~uid:9 ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp in
  let original = Packet.payload p in
  let c = Packet.clone p in
  Alcotest.(check int64) "same payload" original (Packet.payload c);
  Packet.xor_payload c 0xffL;
  Alcotest.(check int64) "original untouched" original (Packet.payload p);
  Alcotest.(check int64) "clone modified" (Int64.logxor original 0xffL) (Packet.payload c);
  Packet.set_payload p 7L;
  Alcotest.(check int64) "clone untouched" (Int64.logxor original 0xffL) (Packet.payload c)

(* A recycled packet's payload is rehashed into its own bytes: whatever
   a modification left there, the reused record reads as a fresh [make]
   of the same uid, to a fingerprint too. *)
let test_recycled_payload_fresh () =
  let clock = { Sim.f = 0.0 } in
  let pool = Pool.create () in
  let p = Pool.acquire pool ~clock ~uid:5 ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp in
  Packet.xor_payload p 0x6861636bL;
  Pool.release pool p;
  let r = Pool.acquire pool ~clock ~uid:77 ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp in
  Alcotest.(check bool) "the record is reused" true (r == p);
  let fresh = Packet.make_at ~clock ~uid:77 ~src:0 ~dst:2 ~flow:1 ~size:100 Packet.Udp in
  Alcotest.(check int64) "payload" (Packet.payload fresh) (Packet.payload r);
  Alcotest.(check int64) "Fnv.hash_int uid" (Crypto_sim.Fnv.hash_int 77) (Packet.payload r);
  let key = Crypto_sim.Siphash.key_of_string "recycle" in
  Alcotest.(check int64) "fingerprint" (Packet.fingerprint key fresh) (Packet.fingerprint key r)

let test_net_ttl_expiry () =
  let net = line_net 5 in
  let expired = ref [] in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with
      | Router.Ttl_expired -> expired := (ev.Net.router, ev.Net.pkt.Packet.uid) :: !expired
      | _ -> ());
  let pkt =
    Packet.make ~sim:(Net.sim net) ~src:0 ~dst:4 ~flow:1 ~size:100 ~ttl:2 Packet.Udp
  in
  (* The packet dies at r2 and returns to the pool: read its uid first. *)
  let uid = pkt.Packet.uid in
  Net.originate net pkt;
  Net.run net;
  Alcotest.(check (list (pair int int))) "expired en route at r2" [ (2, uid) ] !expired

let test_net_fabrication () =
  let net = line_net 3 in
  let delivered = ref 0 and fabricated = ref 0 in
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  let bogus = Packet.make ~sim:(Net.sim net) ~src:0 ~dst:2 ~flow:9 ~size:100 Packet.Udp in
  Net.subscribe_router net (fun ev ->
      match ev.Net.kind with
      | Router.Fabricated ->
          if ev.Net.pkt == bogus && ev.Net.next = 2 then incr fabricated
      | _ -> ());
  Router.fabricate (Net.router net 1) ~next:2 bogus;
  Net.run net;
  Alcotest.(check int) "fabricated" 1 !fabricated;
  Alcotest.(check int) "delivered" 1 !delivered

let test_net_policy_forwarding () =
  let g = Gen.ring ~n:5 in
  let net = Net.create ~jitter_bound:0.0 g in
  let pol = Topology.Policy.compute g ~forbidden:[ [ 0; 1 ] ] in
  Net.use_policy net pol;
  let path_taken = ref [] in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with
      | Iface.Transmit_start -> path_taken := ev.Net.router :: !path_taken
      | _ -> ());
  Net.originate net (Packet.make ~sim:(Net.sim net) ~src:0 ~dst:1 ~flow:1 ~size:100 Packet.Udp);
  Net.run net;
  Alcotest.(check (list int)) "long way round" [ 0; 4; 3; 2 ] (List.rev !path_taken)

(* --- flows / ping --- *)

let test_cbr_count () =
  let net = line_net 2 in
  let f = Flow.cbr net ~src:0 ~dst:1 ~rate_pps:10.0 ~size:500 ~start:0.0 ~stop:1.0 in
  let read = Flow.delivered_counter net ~node:1 ~flow:(Flow.flow_id f) in
  Net.run net;
  (* Ticks at 0.0, 0.1, ..., 1.0 inclusive. *)
  Alcotest.(check int) "sent" 11 (Flow.sent f);
  Alcotest.(check int) "all delivered" 11 (read ())

let test_poisson_rate () =
  let net = line_net 2 in
  let f = Flow.poisson net ~src:0 ~dst:1 ~rate_pps:200.0 ~size:200 ~start:0.0 ~stop:10.0 in
  Net.run net;
  let rate = float_of_int (Flow.sent f) /. 10.0 in
  Alcotest.(check bool) (Printf.sprintf "rate %.1f near 200" rate) true
    (Float.abs (rate -. 200.0) < 20.0)

(* A Poisson source whose mean gap (50 us) is well below the jitter
   bound (200 us): a tick's nominal time plus its jitter often falls
   before the instant the previous tick fired, and the tick then fires
   at that instant rather than in the past.  Every packet still reaches
   its source's queue within [created, created + jitter_bound), and
   the ties show the clamp ran. *)
let test_poisson_gaps_under_jitter () =
  let jitter_bound = 200e-6 in
  let g = G.create ~n:2 in
  G.add_link g ~bw:1e9 ~delay:0.001 0 1;
  let net = Net.create ~jitter_bound ~queue:(Net.Droptail 10_000_000) g in
  Net.use_routing net (Rt.compute g);
  let checked = ref 0 and ties = ref 0 and last = ref (-1.0) in
  Net.subscribe_link net ~kinds:Iface.(kinds [ Enqueued ]) ~src:0 ~dst:1 (fun ev ->
      let created = ev.Net.pkt.Packet.created.Sim.f and t = ev.Net.clock.Sim.f in
      if not (created <= t && t < created +. jitter_bound) then
        Alcotest.failf "enqueued at %.9f, created at %.9f" t created;
      if t = !last then incr ties;
      last := t;
      incr checked);
  let f = Flow.poisson net ~src:0 ~dst:1 ~rate_pps:20_000.0 ~size:100 ~start:0.0 ~stop:0.5 in
  Net.run net;
  Alcotest.(check bool) (Printf.sprintf "%d packets" (Flow.sent f)) true (Flow.sent f > 5_000);
  Alcotest.(check int) "every packet enqueued in its window" (Flow.sent f) !checked;
  Alcotest.(check bool) (Printf.sprintf "clamped ticks (%d)" !ties) true (!ties > 100)

let test_ping_rtt () =
  (* Line 0-1-2, 10 ms links, negligible tx time: RTT = 4 links * 10 ms +
     4 * tx.  size 100 -> tx = 8e-5. *)
  let g = G.create ~n:3 in
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 0 1;
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 1 2;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let p = Ping.start net ~src:0 ~dst:2 ~interval:0.5 ~start:0.0 ~stop:3.0 () in
  Net.run net;
  Alcotest.(check int) "probes" 7 (Ping.sent p);
  Alcotest.(check int) "no loss" 0 (Ping.lost p);
  List.iter
    (fun (_, rtt) ->
      Alcotest.(check (float 1e-6)) "rtt" (0.040 +. (4.0 *. 8e-5)) rtt)
    (Ping.samples p)

let test_ping_loss () =
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1) (fun ctx pkt ->
      match pkt.Packet.proto with
      | Packet.Ping _ when ctx.Router.prev >= 0 -> Router.Drop
      | _ -> Router.Forward);
  let p = Ping.start net ~src:0 ~dst:2 ~interval:0.5 ~start:0.0 ~stop:2.0 () in
  Net.run net;
  Alcotest.(check int) "all lost" (Ping.sent p) (Ping.lost p)

(* A zero interval would reschedule at one instant forever, and a
   negative one would raise only after the first probe went out. *)
let test_ping_rejects_interval () =
  let net = line_net 3 in
  List.iter
    (fun interval ->
      Alcotest.check_raises (Printf.sprintf "interval %g" interval)
        (Invalid_argument "Ping.start: interval must be positive and finite") (fun () ->
          ignore (Ping.start net ~src:0 ~dst:2 ~interval ~start:0.0 ~stop:1.0 ())))
    [ 0.0; -0.5; Float.nan; Float.infinity ];
  Net.run net;
  Alcotest.(check int) "nothing scheduled" 0 (Net.events_processed net)

(* --- Probe --- *)

let contains s sub =
  let n = String.length sub in
  let rec scan i = i + n <= String.length s && (String.sub s i n = sub || scan (i + 1)) in
  scan 0

let test_probe_marks_malice () =
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1) (Core.Adversary.drop_fraction ~seed:2 0.5);
  let probe = Probe.create () in
  Net.set_probe net (Some probe);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:50.0 ~size:200 ~start:0.0 ~stop:1.0);
  Net.run net;
  let lines = List.map Probe.describe (Telemetry.Journal.to_list (Probe.journal probe)) in
  Alcotest.(check bool) "malicious drops visible" true
    (List.exists (fun line -> contains line "MALICIOUS-drop") lines)

(* The probe and the listeners are lent the same view: the journal,
   rendered after the run, reads line for line what network-wide
   listeners rendered at callback time.  Pooled, so the packets the
   views named have long been recycled when the journal is read. *)
let test_probe_journal_reads_as_heard () =
  let g = Gen.line ~n:3 in
  let net = Net.create ~jitter_bound:0.0 ~poison:true g in
  Net.use_routing net (Rt.compute g);
  let probe = Probe.create () in
  Net.set_probe net (Some probe);
  Router.set_behavior (Net.router net 1) (Core.Adversary.drop_fraction ~seed:2 0.2);
  let heard = ref [] in
  Net.subscribe_iface net (fun ev -> heard := Probe.describe_iface ev :: !heard);
  Net.subscribe_router net (fun ev -> heard := Probe.describe_router ev :: !heard);
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:50.0 ~size:200 ~start:0.0 ~stop:0.5);
  Net.run net;
  let journaled =
    List.map Probe.describe (Telemetry.Journal.to_list (Probe.journal probe))
  in
  Alcotest.(check bool) "the pool recycled" true
    ((Net.pool_stats net).Pool.recycled > 0);
  Alcotest.(check (list string)) "journal lines = heard lines" (List.rev !heard)
    journaled

(* A link listener hears exactly the events of its link, in the order a
   network-wide listener sees them, and subscribing to a link that does
   not exist is an error. *)
let test_link_listener_scope () =
  let events ~scoped =
    let net = line_net ~jitter_bound:100e-6 4 in
    let heard = ref [] in
    let record (ev : Net.iface_event) =
      let tag =
        let p = ev.Net.pkt in
        match ev.Net.kind with
        | Iface.Enqueued -> Printf.sprintf "enq:%d" p.Packet.uid
        | Iface.Transmit_start -> Printf.sprintf "tx:%d" p.Packet.uid
        | Iface.Delivered -> Printf.sprintf "dlv:%d" p.Packet.uid
        | _ -> "drop"
      in
      heard :=
        Printf.sprintf "%.9f %d>%d %s" ev.Net.clock.Sim.f ev.Net.router ev.Net.next tag :: !heard
    in
    if scoped then begin
      Net.subscribe_link net ~src:1 ~dst:2 record;
      Net.subscribe_link net ~src:2 ~dst:1 record
    end
    else
      Net.subscribe_iface net (fun ev ->
          match (ev.Net.router, ev.Net.next) with (1, 2) | (2, 1) -> record ev | _ -> ());
    ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:100.0 ~size:200 ~start:0.0 ~stop:0.5);
    ignore (Flow.cbr net ~src:3 ~dst:1 ~rate_pps:100.0 ~size:200 ~start:0.0 ~stop:0.5);
    Net.run net;
    List.rev !heard
  in
  let scoped = events ~scoped:true in
  Alcotest.(check bool) "the link carried traffic" true (List.length scoped > 100);
  Alcotest.(check (list string)) "same events as a filtered network-wide listener"
    (events ~scoped:false) scoped;
  let net = line_net 3 in
  Alcotest.check_raises "absent link" (Invalid_argument "Net.subscribe_link: no such link")
    (fun () -> Net.subscribe_link net ~src:0 ~dst:2 ignore);
  Alcotest.check_raises "router out of range"
    (Invalid_argument "Net.subscribe_link: no such link")
    (fun () -> Net.subscribe_link net ~src:7 ~dst:0 ignore)

(* Observation by kind: a listener that declares a kind set K hears
   exactly what an every-kind listener hears, filtered to K — the same
   records in the same order — whether it listens network-wide or on
   one link, and whether or not a probe makes every interface build
   every kind.  Link 1->2 of the ring carries every iface kind:
   congestion (forced and, under RED, early drops), a failure and
   restore, and corruption; router 2 drops packets maliciously. *)
let iface_kind_sets =
  Iface.
    [ []; [ Enqueued ]; [ Drop_congestion ]; [ Drop_red_early ]; [ Drop_link_down ];
      [ Drop_corrupted ]; [ Transmit_start ]; [ Delivered ];
      [ Delivered; Drop_link_down ]; [ Transmit_start; Enqueued; Drop_link_down ];
      [ Enqueued; Drop_congestion ]; [ Drop_congestion; Drop_red_early ] ]

let router_kind_sets =
  Router.[ []; [ Malicious_drop ]; [ Delivered_local ]; [ Malicious_drop; Delivered_local ] ]

(* What a listener heard, snapshotted during its callback: the view is
   borrowed, so a test keeps the fields it compares and the line the
   probe's renderer gives for the view at that moment.  The line names
   the packet ([ev.pkt]); a router event's snapshot adds its neighbour
   and scalar, which the line does not show for every kind. *)
type heard = Link of int * int * Iface.event | Node of int * Router.event

let heard_link (ev : Net.iface_event) =
  ( Link (ev.router, ev.next, ev.kind),
    Printf.sprintf "%.9f %s" ev.clock.f (Probe.describe_iface ev) )

let heard_node (ev : Net.router_event) =
  ( Node (ev.router, ev.kind),
    Printf.sprintf "%.9f %s next=%d arg=%g" ev.clock.f (Probe.describe_router ev) ev.next
      ev.arg )

(* The ring8 run, with [listen] subscribing [hear]; returns every
   snapshot, in the order heard.  A snapshot is rendered during its
   callback: the view and its packet are only lent. *)
let kinds_ring8 ~red ~probed listen =
  let g = Gen.ring ~n:8 in
  let queue =
    if red then
      Net.Red
        { Red.default_params with
          Red.limit_bytes = 8000; min_th = 2000.0; max_th = 6000.0; wq = 0.002 }
    else Net.Droptail 8000
  in
  let net = Net.create ~seed:3 ~queue ~jitter_bound:100e-6 g in
  Net.use_routing net (Rt.compute g);
  if probed then Net.set_probe net (Some (Probe.create ()));
  let heard = ref [] in
  listen net (fun h -> heard := h :: !heard);
  List.iter
    (fun (s, d, pps, size) ->
      ignore (Flow.cbr net ~src:s ~dst:d ~rate_pps:pps ~size ~start:0.0 ~stop:1.0))
    [ (0, 4, 200.0, 500); (4, 0, 200.0, 500); (1, 3, 1500.0, 1000); (6, 2, 200.0, 500) ];
  Net.set_link_corruption net ~src:1 ~dst:2 0.05;
  Router.set_behavior (Net.router net 2) (Core.Adversary.drop_fraction ~seed:2 0.1);
  Sim.schedule_at (Net.sim net) ~time:0.4 (fun () -> Net.fail_link net ~src:1 ~dst:2);
  Sim.schedule_at (Net.sim net) ~time:0.5 (fun () -> Net.restore_link net ~src:1 ~dst:2);
  Net.run ~until:1.5 net;
  List.rev !heard

let test_listener_hears_its_kinds () =
  let on_link = function Link (1, 2, _) -> true | _ -> false in
  let iface_wants k = function Link (_, _, kind) -> Iface.wants k kind | _ -> false in
  let router_wants k = function Node (_, kind) -> Router.wants k kind | _ -> false in
  let lines = List.map snd in
  List.iter
    (fun red ->
      let all =
        kinds_ring8 ~red ~probed:false (fun net hear ->
            Net.subscribe_iface net (fun ev -> hear (heard_link ev));
            Net.subscribe_router net (fun ev -> hear (heard_node ev)))
      in
      let expect p = List.filter_map (fun (ev, line) -> if p ev then Some line else None) all in
      List.iter
        (fun k ->
          if k <> [] && (red || k <> [ Iface.Drop_red_early ]) then
            Alcotest.(check bool) "link 1->2 shows the kinds" true
              (expect (fun ev -> on_link ev && iface_wants (Iface.kinds k) ev) <> []))
        iface_kind_sets;
      List.iter
        (fun k ->
          Alcotest.(check bool) "the routers show the kinds" true
            (k = [] || expect (router_wants (Router.kinds k)) <> []))
        router_kind_sets;
      List.iter
        (fun probed ->
          let run listen = lines (kinds_ring8 ~red ~probed listen) in
          let case = Printf.sprintf "red=%b probed=%b" red probed in
          List.iter
            (fun ks ->
              let k = Iface.kinds ks in
              Alcotest.(check (list string))
                (case ^ ": network-wide listener")
                (expect (iface_wants k))
                (run (fun net hear ->
                     Net.subscribe_iface net ~kinds:k (fun ev -> hear (heard_link ev))));
              Alcotest.(check (list string))
                (case ^ ": link listener")
                (expect (fun ev -> on_link ev && iface_wants k ev))
                (run (fun net hear ->
                     Net.subscribe_link net ~kinds:k ~src:1 ~dst:2 (fun ev ->
                         hear (heard_link ev)))))
            iface_kind_sets;
          List.iter
            (fun ks ->
              let k = Router.kinds ks in
              Alcotest.(check (list string))
                (case ^ ": router listener")
                (expect (router_wants k))
                (run (fun net hear ->
                     Net.subscribe_router net ~kinds:k (fun ev -> hear (heard_node ev)))))
            router_kind_sets)
        [ false; true ])
    [ false; true ]

(* [Net.iface] answers [None] for a router outside the network, and the
   link operations report their documented "no such link" error. *)
let test_out_of_range_router () =
  let net = Net.create (Gen.ring ~n:4) in
  Alcotest.(check bool) "no interface from router 9" true (Net.iface net ~src:9 ~dst:0 = None);
  Alcotest.(check bool) "no interface from router -1" true
    (Net.iface net ~src:(-1) ~dst:0 = None);
  Alcotest.(check bool) "no interface to router 9" true (Net.iface net ~src:0 ~dst:9 = None);
  let no_link = Invalid_argument "Net: no such link" in
  Alcotest.check_raises "link_up" no_link (fun () -> ignore (Net.link_up net ~src:9 ~dst:0));
  Alcotest.check_raises "fail_link" no_link (fun () -> Net.fail_link net ~src:9 ~dst:0);
  Alcotest.check_raises "restore_link" no_link (fun () -> Net.restore_link net ~src:4 ~dst:0);
  Alcotest.check_raises "set_link_corruption"
    (Invalid_argument "Net.set_link_corruption: no such link")
    (fun () -> Net.set_link_corruption net ~src:(-2) ~dst:0 0.1)

(* --- Stats --- *)

(* A packet offered to a failed link never enters the queue, and the
   packets already queued stay there: the depth series must keep reading
   the backlog instead of counting each refused packet out of it.
   r1->r2 serializes 20 kB/s under a 50 kB/s offer, then fails at 0.5 s
   with 29 packets queued. *)
let test_stats_depth_behind_failed_link () =
  let g = G.create ~n:3 in
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 0 1;
  G.add_duplex g ~bw:20e3 ~delay:0.010 1 2;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  Net.set_probe net (Some (Probe.create ()));
  ignore (Flow.cbr net ~src:0 ~dst:2 ~rate_pps:100.0 ~size:500 ~start:0.0 ~stop:2.0);
  Sim.schedule_at (Net.sim net) ~time:0.5 (fun () -> Net.fail_link net ~src:1 ~dst:2);
  Net.run ~until:2.0 net;
  let backlog = Iface.backlog (Option.get (Net.iface net ~src:1 ~dst:2)) in
  Alcotest.(check int) "packets wait behind the failed link" 29 backlog;
  let ts = Stats.queue_depth (Option.get (Net.stats net)) 1 in
  let module Ts = Telemetry.Timeseries in
  let last = Ts.used ts - 1 in
  Alcotest.(check (float 1e-9)) "depth series reads the backlog" (float_of_int backlog)
    (float_of_int (Ts.bucket_sum ts last) /. float_of_int (Ts.bucket_count ts last))

(* --- TCP --- *)

let test_tcp_completes_transfer () =
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:200_000 () in
  Net.run ~until:60.0 net;
  Alcotest.(check bool) "established" true (Tcp.established conn);
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "all bytes" 200_000 (Tcp.bytes_acked conn)

let test_tcp_goodput_bounded () =
  (* Bottleneck 1.25e6 B/s; goodput must be below it but reasonably high. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:2_000_000 () in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  match Tcp.finish_time conn with
  | None -> Alcotest.fail "finish time missing"
  | Some t ->
      (* The line-rate lower bound is 1.6 s; require better than 50%
         utilization. *)
      Alcotest.(check bool) (Printf.sprintf "finished in %.1fs" t) true (t < 3.2)

let test_tcp_fills_bottleneck_queue () =
  (* A long-lived TCP should create congestion drops at the bottleneck —
     the phenomenon that makes naive loss-counting ambiguous (Ch. 6). *)
  let g = G.create ~n:3 in
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 1;
  G.add_duplex g ~bw:1.25e6 ~delay:0.010 1 2;
  let net = Net.create ~jitter_bound:0.0 ~queue:(Net.Droptail 32000) g in
  Net.use_routing net (Rt.compute g);
  let congestion = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with Iface.Drop_congestion -> incr congestion | _ -> ());
  let conn = Tcp.connect net ~src:0 ~dst:2 () in
  Net.run ~until:30.0 net;
  Alcotest.(check bool) "congestion losses occurred" true (!congestion > 0);
  Alcotest.(check bool) "sender retransmitted" true (Tcp.retransmits conn > 0);
  Alcotest.(check bool) "still made progress" true (Tcp.bytes_acked conn > 1_000_000)

let test_tcp_syn_drop_delays_connection () =
  (* Attack 4: dropping the first SYN costs the victim the 3 s initial
     timeout — the disproportionate-impact example of §6.1.1. *)
  let net = line_net 3 in
  let dropped_first = ref false in
  Router.set_behavior (Net.router net 1) (fun ctx pkt ->
      if ctx.Router.prev >= 0 && Packet.is_syn pkt && not !dropped_first then begin
        dropped_first := true;
        Router.Drop
      end
      else Router.Forward);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:10_000 () in
  Net.run ~until:30.0 net;
  (match Tcp.connect_time conn with
  | Some t -> Alcotest.(check bool) (Printf.sprintf "connect at %.2fs" t) true (t >= 3.0)
  | None -> Alcotest.fail "never connected");
  Alcotest.(check int) "one syn retry" 1 (Tcp.syn_retries conn);
  Alcotest.(check bool) "transfer still finished" true (Tcp.finished conn)

let test_tcp_selective_drops_collapse_goodput () =
  (* Dropping 20% of one flow's data packets (attack 1) wrecks its
     throughput relative to an untouched flow. *)
  let run ~attack =
    let net = line_net 3 in
    let count = ref 0 in
    if attack then
      Router.set_behavior (Net.router net 1) (fun ctx pkt ->
          match pkt.Packet.proto with
          | Packet.Tcp h when ctx.Router.prev >= 0 && h.Packet.seq >= 0 ->
              incr count;
              if !count mod 5 = 0 then Router.Drop else Router.Forward
          | _ -> Router.Forward);
    let conn = Tcp.connect net ~src:0 ~dst:2 () in
    Net.run ~until:20.0 net;
    Tcp.bytes_acked conn
  in
  let clean = run ~attack:false and attacked = run ~attack:true in
  Alcotest.(check bool)
    (Printf.sprintf "attacked %d << clean %d" attacked clean)
    true
    (float_of_int attacked < 0.25 *. float_of_int clean)

let test_tcp_two_flows_share () =
  let g = G.create ~n:4 in
  (* 0 and 1 feed 2; bottleneck 2 -> 3. *)
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 0 2;
  G.add_duplex g ~bw:12.5e6 ~delay:0.001 1 2;
  G.add_duplex g ~bw:1.25e6 ~delay:0.005 2 3;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let c1 = Tcp.connect net ~src:0 ~dst:3 () in
  let c2 = Tcp.connect net ~src:1 ~dst:3 () in
  Net.run ~until:30.0 net;
  let b1 = Tcp.bytes_acked c1 and b2 = Tcp.bytes_acked c2 in
  Alcotest.(check bool) "both progress" true (b1 > 100_000 && b2 > 100_000);
  let ratio = float_of_int (max b1 b2) /. float_of_int (max 1 (min b1 b2)) in
  Alcotest.(check bool) (Printf.sprintf "fairness ratio %.2f" ratio) true (ratio < 4.0)

let test_link_failure () =
  let net = line_net 3 in
  let down = ref 0 and delivered = ref 0 in
  Net.subscribe_iface net (fun ev ->
      match ev.Net.kind with Iface.Drop_link_down -> incr down | _ -> ());
  Net.attach_app net ~node:2 (fun _ -> incr delivered);
  let f = Flow.cbr net ~src:0 ~dst:2 ~rate_pps:10.0 ~size:200 ~start:0.0 ~stop:3.0 in
  let sim = Net.sim net in
  Sim.schedule sim ~delay:1.0 (fun () -> Net.fail_link net ~src:1 ~dst:2);
  Sim.schedule sim ~delay:2.0 (fun () -> Net.restore_link net ~src:1 ~dst:2);
  Net.run net;
  Alcotest.(check bool) "packets lost while down" true (!down > 5);
  Alcotest.(check int) "conservation" (Flow.sent f) (!delivered + !down)

let test_link_failure_buffered_resume () =
  (* Packets already queued when the link fails are transmitted after
     restoration. *)
  let g = G.create ~n:2 in
  G.add_link g ~bw:1.25e6 ~delay:0.001 0 1;
  let net = Net.create ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let delivered = ref 0 in
  Net.attach_app net ~node:1 (fun _ -> incr delivered);
  let sim = Net.sim net in
  (* Burst of 10 packets at t=0; link fails almost immediately. *)
  for _ = 1 to 10 do
    Net.originate net (Packet.make ~sim ~src:0 ~dst:1 ~flow:1 ~size:1000 Packet.Udp)
  done;
  Sim.schedule sim ~delay:0.001 (fun () -> Net.fail_link net ~src:0 ~dst:1);
  Sim.schedule sim ~delay:1.0 (fun () -> Net.restore_link net ~src:0 ~dst:1);
  Net.run net;
  Alcotest.(check int) "all eventually delivered" 10 !delivered

let test_tcp_tiny_transfer () =
  (* Less than one MSS: a single segment round-trips. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:100 () in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "bytes" 100 (Tcp.bytes_acked conn)

let test_tcp_exact_mss_boundary () =
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~mss:500 ~total_bytes:1500 () in
  Net.run ~until:10.0 net;
  Alcotest.(check bool) "finished" true (Tcp.finished conn);
  Alcotest.(check int) "bytes" 1500 (Tcp.bytes_acked conn)

let test_tcp_stop_time () =
  (* A stop time freezes the offered data but does not corrupt state. *)
  let net = line_net 3 in
  let conn = Tcp.connect net ~src:0 ~dst:2 ~stop:1.0 () in
  Net.run ~until:10.0 net;
  let acked = Tcp.bytes_acked conn in
  Alcotest.(check bool) "made some progress" true (acked > 0);
  Alcotest.(check bool) "then stopped" true
    (acked <= int_of_float (1.5 *. 1.25e6))

let test_tcp_rto_backoff_under_blackhole () =
  (* A total blackhole mid-transfer: the sender keeps retrying with
     exponential backoff and never finishes, but also never runs away. *)
  let net = line_net 3 in
  let started = ref false in
  Router.set_behavior (Net.router net 1) (fun ctx _ ->
      if ctx.Router.prev >= 0 && !started then Router.Drop else Router.Forward);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:5_000_000 () in
  Sim.schedule (Net.sim net) ~delay:0.5 (fun () -> started := true);
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "not finished" false (Tcp.finished conn);
  Alcotest.(check bool) "timeouts occurred" true (Tcp.timeouts conn > 3);
  (* Backoff keeps the retry count modest over 2 minutes. *)
  Alcotest.(check bool) "bounded retries" true (Tcp.retransmits conn < 200)

let test_tcp_receiver_reordering () =
  (* Random 200 ms delays reorder segments; the out-of-order buffer still
     reassembles the byte stream completely. *)
  let net = line_net 3 in
  Router.set_behavior (Net.router net 1)
    (Core.Adversary.delay_fraction ~seed:4 ~delay:0.2 0.2);
  let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:200_000 () in
  Net.run ~until:120.0 net;
  Alcotest.(check bool) "finished despite reordering" true (Tcp.finished conn);
  Alcotest.(check int) "exact bytes" 200_000 (Tcp.bytes_acked conn)

(* --- lazy transmission end --- *)

(* Exact same-time ties everywhere: 512-byte packets serialize in
   exactly 2^-11 s on 2^20 B/s links with 2^-9 s latency, CBR gaps are
   powers of two, and every sum stays exact, so transmission ends land
   on generator ticks, arrivals and other transmission ends, and two
   flows overload some links so packets queue behind the wire.  Returns
   the probe journal plus every router's delivery order. *)
let tie_scenario () =
  let n = 6 in
  let g = G.create ~n in
  for i = 0 to n - 1 do
    G.add_duplex g ~bw:1048576.0 ~delay:(1.0 /. 512.0) i ((i + 1) mod n)
  done;
  let net = Net.create ~seed:3 ~jitter_bound:0.0 g in
  Net.use_routing net (Rt.compute g);
  let probe = Probe.create ~journal_capacity:1_000_000 () in
  Net.set_probe net (Some probe);
  let deliveries = Array.make n [] in
  for node = 0 to n - 1 do
    Net.attach_app net ~node (fun pkt ->
        deliveries.(node) <- (pkt.Packet.flow, pkt.Packet.uid) :: deliveries.(node))
  done;
  let gap = 1.0 /. 2048.0 in
  let flows =
    List.map
      (fun (src, dst, rate, size, start) ->
        Flow.cbr net ~src ~dst ~rate_pps:rate ~size ~start ~stop:0.25)
      [ (0, 3, 2048.0, 512, 0.0); (1, 4, 1024.0, 1024, 2.0 *. gap);
        (2, 0, 512.0, 512, 4.0 *. gap); (5, 2, 2048.0, 512, gap);
        (3, 1, 1024.0, 512, 0.0); (4, 1, 2048.0, 512, 3.0 *. gap) ]
  in
  Net.run ~until:0.3 net;
  let buf = Buffer.create 1_000_000 in
  Telemetry.Journal.iter (Probe.journal probe) (fun e ->
      Buffer.add_string buf (Telemetry.Export.to_string (Probe.json_of_entry e));
      Buffer.add_char buf '\n');
  Array.iteri
    (fun node got ->
      Buffer.add_string buf (Printf.sprintf "router %d:" node);
      List.iter (fun (flow, uid) -> Buffer.add_string buf (Printf.sprintf " %d/%d" flow uid))
        (List.rev got);
      Buffer.add_char buf '\n')
    deliveries;
  Buffer.add_string buf
    (Printf.sprintf "sent %s\n"
       (String.concat "," (List.map (fun f -> string_of_int (Flow.sent f)) flows)));
  Buffer.contents buf

(* Digests recorded with the transmission-end event pushed for every
   packet: the lazy event must resolve every tie the same way. *)
let test_lazy_txend_tie_order () =
  let hex s = Digest.to_hex (Digest.string s) in
  let got = tie_scenario () in
  Alcotest.(check bool) "journal retained every record" true (String.length got > 100_000);
  Alcotest.(check string) "recorded digest" "227f4df2c227dbc7837384bf34682841" (hex got)

(* Uncongested, jittered: a hop is its arrival event alone, which
   fires after the receiving router's jitter, and a source's tick
   carries the source router's; the transmission end never reaches the
   heap (it used to, for ticks + 3 hops), and neither does a post-jitter
   enqueue (it used to, for ticks + 2 hops). *)
let test_one_event_per_hop () =
  let net = line_net ~jitter_bound:100e-6 4 in
  let flows =
    [ Flow.cbr net ~src:0 ~dst:3 ~rate_pps:50.0 ~size:500 ~start:0.0 ~stop:1.0;
      Flow.cbr net ~src:3 ~dst:0 ~rate_pps:40.0 ~size:500 ~start:0.01 ~stop:1.0 ]
  in
  Net.run net;
  (* Every tick that sent schedules one more, which finds the flow over. *)
  let ticks = List.fold_left (fun acc f -> acc + Flow.sent f + 1) 0 flows in
  let hops = ref 0 in
  for r = 0 to 3 do
    List.iter (fun i -> hops := !hops + Iface.tx_packets i) (Router.ifaces (Net.router net r))
  done;
  Alcotest.(check int) "hops" (3 * List.fold_left (fun acc f -> acc + Flow.sent f) 0 flows) !hops;
  Alcotest.(check int) "events = ticks + hops" (ticks + !hops) (Net.events_processed net)

(* The information model of the jitter fold: a neighbour sees a packet
   reach a router at its arrival, and the router enqueues it one
   processing jitter later.  On a jittered line carrying CBR both ways
   and a TCP transfer, every Delivered is stamped exactly at its
   Transmit_start + size/bw + delay, no later than the clock and at
   most the jitter bound before it; the packet's Enqueued at that
   router lies in [Delivered, Delivered + jitter_bound), and a
   source's Enqueued in [created, created + jitter_bound). *)
let test_delivered_keeps_arrival () =
  let jitter_bound = 100e-6 in
  let net = line_net ~jitter_bound 4 in
  let sim = Net.sim net and g = Net.graph net in
  let sent = Hashtbl.create 1024 and arrived = Hashtbl.create 1024 in
  let delivered = ref 0 and transit = ref 0 and sourced = ref 0 in
  let within what from t =
    if not (from <= t && t < from +. jitter_bound) then
      Alcotest.failf "%s at %.9f, not within the jitter bound after %.9f" what t from
  in
  Net.subscribe_iface net (fun ev ->
      let p = ev.Net.pkt and t = ev.Net.clock.Sim.f in
      let at = (p.Packet.uid, ev.Net.router) in
      match ev.Net.kind with
      | Iface.Transmit_start -> Hashtbl.replace sent at t
      | Iface.Delivered ->
          let l = G.link_exn g ev.Net.router ev.Net.next in
          let arrive =
            Hashtbl.find sent at +. (float_of_int p.Packet.size /. l.G.bw +. l.G.delay)
          in
          if t <> arrive then Alcotest.failf "Delivered at %.9f, arrival %.9f" t arrive;
          let now = Sim.now sim in
          if not (t <= now && now -. t <= jitter_bound) then
            Alcotest.failf "Delivered stamped %.9f at %.9f" t now;
          Hashtbl.replace arrived (p.Packet.uid, ev.Net.next) t;
          incr delivered
      | Iface.Enqueued -> (
          match Hashtbl.find_opt arrived at with
          | Some d ->
              within "Enqueued" d t;
              incr transit
          | None ->
              within "source Enqueued" p.Packet.created.Sim.f t;
              incr sourced)
      | _ -> ());
  ignore (Flow.cbr net ~src:0 ~dst:3 ~rate_pps:200.0 ~size:500 ~start:0.0 ~stop:1.0);
  ignore (Flow.cbr net ~src:3 ~dst:1 ~rate_pps:150.0 ~size:300 ~start:0.003 ~stop:1.0);
  ignore (Tcp.connect net ~src:0 ~dst:3 ~total_bytes:200_000 ());
  Net.run ~until:5.0 net;
  Alcotest.(check bool)
    (Printf.sprintf "%d deliveries, %d transit and %d source enqueues" !delivered !transit
       !sourced)
    true
    (!delivered > 1_000 && !transit > 500 && !sourced > 300)

let test_net_determinism () =
  (* Identical seeds produce identical traces. *)
  let run () =
    let net = line_net ~jitter_bound:100e-6 3 in
    let events = ref 0 in
    Net.subscribe_iface net (fun _ -> incr events);
    let conn = Tcp.connect net ~src:0 ~dst:2 ~total_bytes:100_000 () in
    Net.run ~until:20.0 net;
    (!events, Tcp.bytes_acked conn, Sim.events_processed (Net.sim net))
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical" true (a = b)

(* A scenario that exercises every observable at once: ring of 8, CBR
   and Poisson flows on antipodal pairs, one malicious dropper, link
   corruption, a mid-run link failure and data-plane subscriptions.
   The digest folds the event stream (order, times, uids, payloads) and
   the app deliveries into one string. *)
let run_scenario ~duration () =
  let g = Gen.ring ~n:8 in
  let net = Net.create ~seed:11 ~jitter_bound:200e-6 g in
  Net.use_routing net (Rt.compute g);
  let buf = Buffer.create 4096 in
  Net.subscribe_iface net (fun ev ->
      let p = ev.Net.pkt in
      let tag =
        match ev.Net.kind with
        | Iface.Enqueued -> Printf.sprintf "enq:%d" p.Packet.uid
        | Iface.Drop_congestion -> Printf.sprintf "dcong:%d" p.Packet.uid
        | Iface.Drop_red_early -> Printf.sprintf "dred:%d" p.Packet.uid
        | Iface.Drop_link_down -> Printf.sprintf "ddown:%d" p.Packet.uid
        | Iface.Drop_corrupted -> Printf.sprintf "dcorr:%d" p.Packet.uid
        | Iface.Transmit_start -> Printf.sprintf "tx:%d" p.Packet.uid
        | Iface.Delivered -> Printf.sprintf "dlv:%d:%Ld" p.Packet.uid (Packet.payload p)
      in
      Buffer.add_string buf
        (Printf.sprintf "%.9f i %d>%d %s\n" ev.Net.clock.Sim.f ev.Net.router ev.Net.next tag));
  Net.subscribe_router net (fun ev ->
      let tag =
        match ev.Net.kind with
        | Router.Malicious_drop -> Printf.sprintf "mdrop:%d" ev.Net.pkt.Packet.uid
        | Router.Delivered_local -> Printf.sprintf "local:%d" ev.Net.pkt.Packet.uid
        | Router.Ttl_expired -> Printf.sprintf "ttl:%d" ev.Net.pkt.Packet.uid
        | Router.No_route -> Printf.sprintf "noroute:%d" ev.Net.pkt.Packet.uid
        | _ -> "other"
      in
      Buffer.add_string buf
        (Printf.sprintf "%.9f r %d %s\n" ev.Net.clock.Sim.f ev.Net.router tag));
  Router.set_behavior (Net.router net 2) (Core.Adversary.drop_fraction ~seed:7 0.3);
  Net.set_link_corruption net ~src:5 ~dst:6 0.05;
  let flows =
    [ Flow.cbr net ~src:0 ~dst:4 ~rate_pps:300.0 ~size:400 ~start:0.05 ~stop:duration;
      Flow.poisson net ~src:1 ~dst:5 ~rate_pps:200.0 ~size:600 ~start:0.1 ~stop:duration;
      Flow.cbr net ~src:6 ~dst:2 ~rate_pps:250.0 ~size:300 ~start:0.02 ~stop:duration ]
  in
  let counted = Flow.delivered_counter net ~node:4 ~flow:(Flow.flow_id (List.hd flows)) in
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

(* Two consecutive runs in one process must agree: no engine state
   survives a network. *)
let test_consecutive_runs_identical () =
  let a = run_scenario ~duration:1.0 () in
  let b = run_scenario ~duration:1.0 () in
  Alcotest.(check bool) "scenario non-trivial" true (String.length a > 10_000);
  Alcotest.(check bool) "repeatable" true (String.equal a b)

let () =
  Alcotest.run "netsim"
    [ ( "sim",
        [ Alcotest.test_case "ordering" `Quick test_sim_ordering;
          Alcotest.test_case "fifo ties" `Quick test_sim_fifo_ties;
          Alcotest.test_case "until" `Quick test_sim_until;
          Alcotest.test_case "nested" `Quick test_sim_nested_scheduling;
          Alcotest.test_case "rejects past" `Quick test_sim_rejects_past;
          Alcotest.test_case "rejects non-finite" `Quick test_sim_rejects_non_finite;
          Alcotest.test_case "fresh ids" `Quick test_sim_fresh_ids;
          Alcotest.test_case "float_into draws as Random.State.float" `Quick
            test_sim_float_into ] );
      ( "queues",
        [ Alcotest.test_case "fifo capacity" `Quick test_fifo_capacity;
          Alcotest.test_case "fifo order" `Quick test_fifo_order;
          Alcotest.test_case "red below min" `Quick test_red_below_min_never_drops;
          Alcotest.test_case "red between thresholds" `Quick test_red_drops_between_thresholds;
          Alcotest.test_case "red pure functions" `Quick test_red_pure_functions;
          Alcotest.test_case "gentle ramp" `Quick test_red_gentle_ramp ] );
      ( "iface",
        [ Alcotest.test_case "timing" `Quick test_iface_timing;
          Alcotest.test_case "serialization" `Quick test_iface_serialization ] );
      ( "network",
        [ Alcotest.test_case "end to end" `Quick test_net_end_to_end;
          Alcotest.test_case "congestion drops" `Quick test_net_congestion_drops;
          Alcotest.test_case "malicious drops" `Quick test_net_malicious_drop_counted;
          Alcotest.test_case "modification" `Quick test_net_modification;
          Alcotest.test_case "ttl expiry" `Quick test_net_ttl_expiry;
          Alcotest.test_case "fabrication" `Quick test_net_fabrication;
          Alcotest.test_case "policy forwarding" `Quick test_net_policy_forwarding;
          Alcotest.test_case "link failure" `Quick test_link_failure;
          Alcotest.test_case "failure resume" `Quick test_link_failure_buffered_resume;
          Alcotest.test_case "determinism" `Quick test_net_determinism;
          Alcotest.test_case "delivered keeps the arrival time" `Quick
            test_delivered_keeps_arrival ] );
      ( "engine",
        [ Alcotest.test_case "consecutive runs identical" `Quick
            test_consecutive_runs_identical ] );
      ( "lazy txend",
        [ Alcotest.test_case "tie order golden" `Quick test_lazy_txend_tie_order;
          Alcotest.test_case "one event per uncongested hop" `Quick
            test_one_event_per_hop ] );
      ( "flows",
        [ Alcotest.test_case "cbr count" `Quick test_cbr_count;
          Alcotest.test_case "poisson rate" `Quick test_poisson_rate;
          Alcotest.test_case "poisson gaps under the jitter bound" `Quick
            test_poisson_gaps_under_jitter;
          Alcotest.test_case "ping rtt" `Quick test_ping_rtt;
          Alcotest.test_case "ping loss" `Quick test_ping_loss;
          Alcotest.test_case "ping rejects a bad interval" `Quick test_ping_rejects_interval ] );
      ( "packet",
        [ Alcotest.test_case "clone payload independent" `Quick test_clone_payload_independent;
          Alcotest.test_case "recycled payload = fresh payload" `Quick
            test_recycled_payload_fresh ] );
      ( "probe",
        [ Alcotest.test_case "journal marks malice" `Quick test_probe_marks_malice;
          Alcotest.test_case "journal reads as the listeners heard" `Quick
            test_probe_journal_reads_as_heard;
          Alcotest.test_case "listener hears exactly its kinds" `Quick
            test_listener_hears_its_kinds;
          Alcotest.test_case "out-of-range router has no link" `Quick
            test_out_of_range_router;
          Alcotest.test_case "link listener hears its link only" `Quick
            test_link_listener_scope ] );
      ( "stats",
        [ Alcotest.test_case "queue depth behind a failed link" `Quick
            test_stats_depth_behind_failed_link ] );
      ( "tcp",
        [ Alcotest.test_case "completes" `Quick test_tcp_completes_transfer;
          Alcotest.test_case "goodput" `Quick test_tcp_goodput_bounded;
          Alcotest.test_case "fills bottleneck" `Quick test_tcp_fills_bottleneck_queue;
          Alcotest.test_case "syn drop" `Quick test_tcp_syn_drop_delays_connection;
          Alcotest.test_case "selective drops" `Quick test_tcp_selective_drops_collapse_goodput;
          Alcotest.test_case "two flows share" `Quick test_tcp_two_flows_share;
          Alcotest.test_case "tiny transfer" `Quick test_tcp_tiny_transfer;
          Alcotest.test_case "mss boundary" `Quick test_tcp_exact_mss_boundary;
          Alcotest.test_case "stop time" `Quick test_tcp_stop_time;
          Alcotest.test_case "rto backoff" `Quick test_tcp_rto_backoff_under_blackhole;
          Alcotest.test_case "receiver reordering" `Quick test_tcp_receiver_reordering ] ) ]
