(* Always-on time-series collection for a simulated run.

   One [Stats.t] rides inside the probe, which feeds it from its own
   hooks; everything it keeps is bounded: downsampling
   [Telemetry.Timeseries] rings for the headline rates,
   [Telemetry.Hist] histograms for latencies and durations, and flat
   per-router arrays for the topology-shaped counters.  Per-link
   transmit and drop totals are the interfaces' own counters, read
   when the document is built.

   This is the probe's one set of counts: a headline series' total is
   exact (its bucket counts are integers), so only the facts no series
   holds get a plain counter of their own — the cause of each drop, the
   injections that are not originations and malice by router. *)

module Ts = Telemetry.Timeseries
module Hist = Telemetry.Hist

(* Headline series: 512 buckets of 50 ms cover 25.6 s before the first
   coarsening; the default 60 s scenario lands at 100 ms buckets. *)
let series_capacity = 512
let series_resolution = 0.05

(* Per-router queue series are coarser: 128 x 100 ms. *)
let router_capacity = 128
let router_resolution = 0.1

(* Drop causes, in the order [drops] indexes them. *)
let drop_causes =
  [| "congestion"; "red_early"; "link_down"; "corrupted"; "malicious";
     "no_route"; "ttl_expired" |]

let congestion = 0
let red_early = 1
let link_down = 2
let corrupted = 3
let malicious = 4
let no_route = 5
let ttl_expired = 6

type t = {
  n : int;
  depth : int array; (* running queued-packet count per router *)
  queue_depth : Ts.t array; (* event-weighted depth samples per router *)
  links : Iface.t list; (* every interface, by (owner, next hop) *)
  drops : int array; (* by cause, indexed as [drop_causes] *)
  malice_by_router : int array; (* malicious actions per router *)
  mutable fabricated : int; (* packets injected by a malicious router *)
  mutable fragments_created : int; (* fragment pieces *)
  mutable fragmented : int; (* originals replaced by their fragments *)
  injected : Ts.t;
  delivered : Ts.t;
  enqueued : Ts.t;
  dropped : Ts.t;
  malice : Ts.t;
  latency : Hist.t; (* origination-to-delivery, matches probe geometry *)
  verdicts : Ts.t;
  alarms : Ts.t;
  faults : Ts.t;
  round_duration : (string, Hist.t) Hashtbl.t; (* per protocol *)
  detection_latency : (string, Hist.t) Hashtbl.t; (* per detector, alarms *)
  ctrl_attempts : Hist.t; (* transmissions per ctrl send *)
  mutable ctrl_sends : int;
  mutable ctrl_timeouts : int;
  mutable attack_start : float; (* negative: unknown *)
}

let headline () = Ts.create ~capacity:series_capacity ~resolution:series_resolution ()
let latency_hist () = Hist.create ~buckets:24 ~min_exp:(-14) ()
let round_hist () = Hist.create ~buckets:20 ~min_exp:(-10) ()
let detect_hist () = Hist.create ~buckets:20 ~min_exp:(-4) ()

let create ~n ifaces =
  let key i = (Iface.owner i, Iface.next_hop i) in
  { n;
    depth = Array.make n 0;
    queue_depth =
      Array.init n (fun _ ->
          Ts.create ~capacity:router_capacity ~resolution:router_resolution ());
    links = List.sort (fun a b -> compare (key a) (key b)) ifaces;
    drops = Array.make (Array.length drop_causes) 0;
    malice_by_router = Array.make n 0;
    fabricated = 0;
    fragments_created = 0;
    fragmented = 0;
    injected = headline ();
    delivered = headline ();
    enqueued = headline ();
    dropped = headline ();
    malice = headline ();
    latency = latency_hist ();
    verdicts = headline ();
    alarms = headline ();
    faults = headline ();
    round_duration = Hashtbl.create 8;
    detection_latency = Hashtbl.create 8;
    ctrl_attempts = Hist.create ~buckets:8 ~min_exp:0 ();
    ctrl_sends = 0;
    ctrl_timeouts = 0;
    attack_start = -1.0 }

let routers t = t.n
let set_attack_start t time = t.attack_start <- time

(* --- data plane ----------------------------------------------------- *)

(* Times travel as flat boxes, the clock or a packet's creation time,
   down to [Ts.record], which reads them: a float passed between
   modules would be boxed per sample. *)
let on_originate t (pkt : Packet.t) = Ts.record t.injected ~at:pkt.Packet.created 1

let depth_sample t ~clock router =
  Ts.record t.queue_depth.(router) ~at:clock t.depth.(router)

(* A drop, at an interface or a router: the headline series and its
   cause. *)
let count_drop t ~clock cause =
  Ts.record t.dropped ~at:clock 1;
  t.drops.(cause) <- t.drops.(cause) + 1

let on_iface t ~clock ~router (ev : Iface.event) =
  match ev with
  | Iface.Enqueued ->
      Ts.record t.enqueued ~at:clock 1;
      t.depth.(router) <- t.depth.(router) + 1;
      depth_sample t ~clock router
  | Iface.Transmit_start ->
      if t.depth.(router) > 0 then t.depth.(router) <- t.depth.(router) - 1;
      depth_sample t ~clock router
  | Iface.Drop_link_down ->
      count_drop t ~clock link_down;
      (* The packet was refused at a failed link and never queued, and
         the packets already queued wait there: the depth is unchanged,
         and the sample reads the backlog this packet met. *)
      depth_sample t ~clock router
  | Iface.Drop_congestion -> count_drop t ~clock congestion
  | Iface.Drop_red_early -> count_drop t ~clock red_early
  | Iface.Drop_corrupted -> count_drop t ~clock corrupted
  | Iface.Delivered -> ()

let count_malice t ~clock router =
  Ts.record t.malice ~at:clock 1;
  t.malice_by_router.(router) <- t.malice_by_router.(router) + 1

let on_router t ~(clock : Sim.fbox) ~router (ev : Router.event) (pkt : Packet.t) arg =
  match ev with
  | Router.Delivered_local ->
      Ts.record t.delivered ~at:clock 1;
      Hist.record_since t.latency ~now:clock ~since:pkt.Packet.created
  | Router.Malicious_drop ->
      count_drop t ~clock malicious;
      count_malice t ~clock router
  | Router.Fabricated ->
      t.fabricated <- t.fabricated + 1;
      count_malice t ~clock router
  | Router.Malicious_modify | Router.Malicious_delay -> count_malice t ~clock router
  | Router.No_route -> count_drop t ~clock no_route
  | Router.Ttl_expired -> count_drop t ~clock ttl_expired
  | Router.Fragmented ->
      t.fragmented <- t.fragmented + 1;
      t.fragments_created <- t.fragments_created + int_of_float arg

(* --- control plane --------------------------------------------------- *)

let find_hist tbl fresh key =
  match Hashtbl.find_opt tbl key with
  | Some h -> h
  | None ->
      let h = fresh () in
      Hashtbl.add tbl key h;
      h

let on_verdict t ~time ~detector ~alarm =
  let at = { Sim.f = time } in
  Ts.record t.verdicts ~at 1;
  if alarm then begin
    Ts.record t.alarms ~at 1;
    if t.attack_start >= 0.0 && time >= t.attack_start then
      Hist.record
        (find_hist t.detection_latency detect_hist detector)
        (time -. t.attack_start)
  end

(* Round spans arrive keyed by their trace track ("fatih", "chi r3");
   the protocol is the first token, so per-router chi tracks fold into
   one per-protocol histogram. *)
let protocol_of_track track =
  match String.index_opt track ' ' with
  | None -> track
  | Some i -> String.sub track 0 i

let on_round t ~track ~start ~finish =
  Hist.record
    (find_hist t.round_duration round_hist (protocol_of_track track))
    (finish -. start)

let on_ctrl_send t ~attempts ~ok =
  t.ctrl_sends <- t.ctrl_sends + 1;
  if not ok then t.ctrl_timeouts <- t.ctrl_timeouts + 1;
  Hist.record t.ctrl_attempts (float_of_int attempts)

let on_fault t ~time = Ts.record t.faults ~at:{ Sim.f = time } 1

(* --- JSON view ------------------------------------------------------- *)

let series_json name ts =
  let open Telemetry.Export in
  let nb = Ts.used ts in
  Assoc
    [ ("name", String name);
      ("resolution", Float (Ts.resolution ts));
      ("counts", List (List.init nb (fun i -> Int (Ts.bucket_count ts i))));
      ("sums",
       List (List.init nb (fun i -> Float (float_of_int (Ts.bucket_sum ts i))))) ]

let hist_json name h =
  let open Telemetry.Export in
  Assoc
    [ ("name", String name);
      ("uppers",
       List (Array.to_list (Array.map (fun u -> Float u) (Hist.uppers h))));
      ("counts",
       List (List.init (Hist.buckets h) (fun i -> Int (Hist.bucket_count h i))));
      ("count", Int (Hist.count h));
      ("sum", Float (Hist.sum h));
      ("p50", Float (Hist.p50 h));
      ("p95", Float (Hist.p95 h));
      ("p99", Float (Hist.p99 h)) ]

let sorted_hists tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let open Telemetry.Export in
  let series =
    [ ("injected", t.injected); ("delivered", t.delivered);
      ("enqueued", t.enqueued); ("dropped", t.dropped); ("malice", t.malice);
      ("verdicts", t.verdicts); ("alarms", t.alarms); ("faults", t.faults) ]
  in
  let hists =
    (("delivery_latency", t.latency) :: ("ctrl_attempts", t.ctrl_attempts)
     :: List.map
          (fun (k, h) -> ("round_duration:" ^ k, h))
          (sorted_hists t.round_duration))
    @ List.map
        (fun (k, h) -> ("detection_latency:" ^ k, h))
        (sorted_hists t.detection_latency)
  in
  let links =
    List.filter_map
      (fun i ->
        let tx = Iface.tx_packets i and drops = Iface.dropped_packets i in
        if tx = 0 && drops = 0 then None
        else
          Some
            (Assoc
               [ ("src", Int (Iface.owner i)); ("dst", Int (Iface.next_hop i));
                 ("tx", Int tx); ("drops", Int drops) ]))
      t.links
  in
  let routers =
    List.init t.n (fun r ->
        Assoc
          [ ("router", Int r);
            ("queue_depth", series_json "queue_depth" t.queue_depth.(r)) ])
  in
  Assoc
    [ ("series", List (List.map (fun (n, ts) -> series_json n ts) series));
      ("hists", List (List.map (fun (n, h) -> hist_json n h) hists));
      ("ctrl",
       Assoc
         [ ("sends", Int t.ctrl_sends); ("timeouts", Int t.ctrl_timeouts) ]);
      ("links", List links);
      ("routers", List routers) ]

let drops t = Array.to_list (Array.mapi (fun i c -> (c, t.drops.(i))) drop_causes)

let malice_by_router t =
  List.filter
    (fun (_, n) -> n > 0)
    (List.init t.n (fun r -> (r, t.malice_by_router.(r))))

(* Prometheus text rendering of the same collectors: histogram [le=]
   edges come from [Hist.uppers] via the shared exporter, and each
   labelled family (per protocol, per router, per cause) is rendered
   under one header. *)
let prometheus t =
  let open Telemetry.Export in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (n, ts) -> prometheus_append_timeseries buf ~name:("stats_" ^ n) [ ([], ts) ])
    [ ("injected", t.injected); ("delivered", t.delivered);
      ("enqueued", t.enqueued); ("dropped", t.dropped); ("malice", t.malice);
      ("verdicts", t.verdicts); ("alarms", t.alarms); ("faults", t.faults) ];
  prometheus_append_hist buf ~name:"stats_delivery_latency_seconds"
    ~help:"origination-to-delivery latency" t.latency;
  prometheus_append_hist buf ~name:"stats_ctrl_attempts"
    ~help:"transmissions per control-plane send" t.ctrl_attempts;
  let labelled key members = List.map (fun (k, x) -> ([ (key, k) ], x)) members in
  prometheus_append_hists buf ~name:"stats_round_duration_seconds"
    (labelled "protocol" (sorted_hists t.round_duration));
  prometheus_append_hists buf ~name:"stats_detection_latency_seconds"
    (labelled "detector" (sorted_hists t.detection_latency));
  prometheus_append_counters buf ~name:"stats_ctrl_sends" [ ([], t.ctrl_sends) ];
  prometheus_append_counters buf ~name:"stats_ctrl_timeouts"
    [ ([], t.ctrl_timeouts) ];
  prometheus_append_timeseries buf ~name:"stats_queue_depth"
    (List.init t.n (fun r -> ([ ("router", string_of_int r) ], t.queue_depth.(r))));
  prometheus_append_counters buf ~name:"stats_dropped_total"
    ~help:"packets dropped, by cause" (labelled "cause" (drops t));
  prometheus_append_counters buf ~name:"stats_malice_total"
    ~help:"malicious router actions, by router"
    (labelled "router"
       (List.map (fun (r, n) -> (string_of_int r, n)) (malice_by_router t)));
  Buffer.contents buf

(* Accessors for the live view and the exporters. *)
let injected t = t.injected
let delivered t = t.delivered
let dropped t = t.dropped
let malice t = t.malice
let alarms t = t.alarms
let delivery_latency t = t.latency
let ctrl_attempts_hist t = t.ctrl_attempts
let ctrl_sends t = t.ctrl_sends
let ctrl_timeouts t = t.ctrl_timeouts
let queue_depth t r = t.queue_depth.(r)
let fabricated t = t.fabricated
let fragments_created t = t.fragments_created
let fragmented t = t.fragmented

let round_durations t = sorted_hists t.round_duration
let detection_latencies t = sorted_hists t.detection_latency
