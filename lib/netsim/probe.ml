type iface_record = { time : float; router : int; next : int; ev : Iface.event }
type router_record = { time : float; router : int; ev : Router.event }

type verdict = {
  time : float;
  detector : string;
  subject : int option;
  suspects : int list;
  confidence : float option;
  alarm : bool;
  detail : string;
}

type fault_record = {
  time : float;
  kind : string;
  routers : int list;
  detail : string;
}

type event =
  | Link of iface_record
  | Node of router_record
  | Verdict of verdict
  | Fault of fault_record

type t = {
  registry : Telemetry.Metrics.t;
  journal : event Telemetry.Journal.t;
  (* Conservation counters.  Every packet handed to the network
     (originate, fabricate, fragment pieces) ends up in exactly one of:
     delivered, a drop cause, replaced-by-fragments, or still in flight
     when the run stops. *)
  injected : Telemetry.Metrics.counter;
  fabricated : Telemetry.Metrics.counter;
  fragments_created : Telemetry.Metrics.counter;
  delivered : Telemetry.Metrics.counter;
  fragmented_originals : Telemetry.Metrics.counter;
  drop_congestion : Telemetry.Metrics.counter;
  drop_red_early : Telemetry.Metrics.counter;
  drop_link_down : Telemetry.Metrics.counter;
  drop_corrupted : Telemetry.Metrics.counter;
  drop_malicious : Telemetry.Metrics.counter;
  drop_no_route : Telemetry.Metrics.counter;
  drop_ttl_expired : Telemetry.Metrics.counter;
  (* Non-conservation observations. *)
  enqueued : Telemetry.Metrics.counter;
  forwarded_hops : Telemetry.Metrics.counter;
  malicious_modify : Telemetry.Metrics.counter;
  malicious_delay : Telemetry.Metrics.counter;
  verdicts : Telemetry.Metrics.counter;
  alarms : Telemetry.Metrics.counter;
  faults_injected : Telemetry.Metrics.counter;
  pkt_size : Telemetry.Hist.t;
  malice_by_router : (int, Telemetry.Metrics.counter) Hashtbl.t;
  mutable first_alarm_time : float option;
  (* Verdicts are rare and load-bearing (the robustness oracle scores
     them after the run), so they are retained here in full even when
     the bounded journal has long since evicted them. *)
  mutable verdicts_rev : verdict list;
  (* Span bridge (optional).  Traced packets open per-hop spans keyed by
     (uid, router, next) — multicast clones share a uid but traverse
     distinct (router, next) edges, so the keys stay unique per branch. *)
  (* Pending per-hop span windows live on the packet itself
     ([Packet.q_start] / [Packet.tx_start]): a packet occupies at most
     one (router, next) edge at a time, so the fields replace the
     (uid, router, next)-keyed tables — and their per-event tuple keys —
     the fast path used to allocate.  Multicast clones and fragments are
     fresh records, so branches never share a window. *)
  tracer : Telemetry.Span.t option;
  named_tracks : (int, unit) Hashtbl.t;
  (* Always-on stats collector (wired by [Net.set_probe]): verdicts,
     round durations and faults feed its control-plane series directly —
     they happen on the coordinator, outside any shard window. *)
  mutable stats : Stats.t option;
}

let iface_packet = function
  | Iface.Enqueued p | Iface.Drop_congestion p | Iface.Drop_red_early p
  | Iface.Drop_link_down p | Iface.Drop_corrupted p | Iface.Transmit_start p
  | Iface.Delivered p ->
      p

let router_packet = function
  | Router.Malicious_drop { pkt; _ }
  | Router.Malicious_modify { pkt; _ }
  | Router.Malicious_delay { pkt; _ }
  | Router.Fabricated { pkt; _ } ->
      pkt
  | Router.Fragmented { original; _ } -> original
  | Router.No_route pkt | Router.Ttl_expired pkt | Router.Delivered_local pkt -> pkt

let drop_counter reg cause =
  Telemetry.Metrics.counter reg "pkt_dropped_total"
    ~help:"packets dropped, by cause" ~labels:[ ("cause", cause) ]

let create ?registry ?(journal_capacity = 65536) ?tracer () =
  let reg = match registry with Some r -> r | None -> Telemetry.Metrics.create () in
  let c name help = Telemetry.Metrics.counter reg name ~help in
  { registry = reg;
    journal = Telemetry.Journal.create ~capacity:journal_capacity ();
    injected = c "pkt_injected_total" "packets originated by applications";
    fabricated = c "pkt_fabricated_total" "packets injected by a malicious router";
    fragments_created = c "pkt_fragments_total" "fragment packets created";
    delivered = c "pkt_delivered_total" "packets delivered to a local application";
    fragmented_originals =
      c "pkt_fragmented_total" "packets replaced by their fragments";
    drop_congestion = drop_counter reg "congestion";
    drop_red_early = drop_counter reg "red_early";
    drop_link_down = drop_counter reg "link_down";
    drop_corrupted = drop_counter reg "corrupted";
    drop_malicious = drop_counter reg "malicious";
    drop_no_route = drop_counter reg "no_route";
    drop_ttl_expired = drop_counter reg "ttl_expired";
    enqueued = c "pkt_enqueued_total" "packets accepted into an output queue";
    forwarded_hops = c "pkt_forwarded_hops_total" "per-hop link deliveries";
    malicious_modify = c "malicious_modify_total" "payload modification events";
    malicious_delay = c "malicious_delay_total" "malicious delay events";
    verdicts = c "detector_verdicts_total" "detector round verdicts recorded";
    alarms = c "detector_alarms_total" "alarming detector verdicts";
    faults_injected = c "fault_injected_total" "benign faults injected into the run";
    pkt_size =
      Telemetry.Metrics.histogram reg "pkt_size_bytes" ~buckets:16 ~min_exp:4
        ~help:"size of injected packets";
    malice_by_router = Hashtbl.create 8;
    first_alarm_time = None;
    verdicts_rev = [];
    tracer;
    named_tracks = Hashtbl.create 16;
    stats = None }

let registry t = t.registry
let journal t = t.journal
let tracer t = t.tracer
let set_stats t stats = t.stats <- stats
let stats t = t.stats

(* Name the (netsim, router) track on first use. *)
let net_track t sp router =
  if not (Hashtbl.mem t.named_tracks router) then begin
    Hashtbl.add t.named_tracks router ();
    Telemetry.Span.set_thread sp ~pid:Telemetry.Span.network_pid ~tid:router
      (Printf.sprintf "r%d" router)
  end;
  router

let malice_counter t router =
  match Hashtbl.find_opt t.malice_by_router router with
  | Some c -> c
  | None ->
      let c =
        Telemetry.Metrics.counter t.registry "malice_events_total"
          ~help:"malicious router actions, by router"
          ~labels:[ ("router", string_of_int router) ]
      in
      Hashtbl.add t.malice_by_router router c;
      c

let on_originate t (pkt : Packet.t) =
  Telemetry.Metrics.inc t.injected;
  Telemetry.Hist.record t.pkt_size (float_of_int pkt.Packet.size);
  match t.tracer with
  | None -> ()
  | Some sp -> (
      match Telemetry.Span.new_trace sp with
      | None -> ()
      | Some trace ->
          pkt.Packet.trace <- trace;
          let tid = net_track t sp pkt.Packet.src in
          ignore
            (Telemetry.Span.instant sp ~trace ~name:"originate" ~cat:"packet"
               ~pid:Telemetry.Span.network_pid ~tid ~time:pkt.Packet.created
               ~routers:[ pkt.Packet.src ]
               ~args:
                 [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
                   ("dst", Telemetry.Export.Int pkt.Packet.dst);
                   ("flow", Telemetry.Export.Int pkt.Packet.flow);
                   ("size", Telemetry.Export.Int pkt.Packet.size) ]
               ()))

(* Per-hop spans for a traced packet: enqueue->transmit ("queue") then
   transmit->deliver ("transmit"); drops become instants and clear any
   pending window so the tables never leak.  Drop instants are recorded
   for {e every} packet, traced or not: benign congestion / RED / link
   losses are exactly the anomalies the robustness oracle and
   [mrdetect trace explain] must tell apart from malice, so they never
   ride on the sampling coin — only the routine hop spans do. *)
let trace_iface t sp ~time ~router ~next (ev : Iface.event) =
  let pkt = iface_packet ev in
  let trace = pkt.Packet.trace in
  let pid = Telemetry.Span.network_pid in
  let pkt_args () =
    [ ("pkt", Telemetry.Export.Int pkt.Packet.uid);
      ("next", Telemetry.Export.Int next) ]
  in
  let drop cause =
    let tid = net_track t sp router in
    pkt.Packet.q_start <- -1.0;
    pkt.Packet.tx_start <- -1.0;
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name:("drop " ^ cause) ~cat:"drop" ~pid ~tid ~time
         ~routers:[ router; next ]
         ~args:(("cause", Telemetry.Export.String cause) :: pkt_args ())
         ())
  in
  match ev with
  | Iface.Drop_congestion _ -> drop "congestion"
  | Iface.Drop_red_early _ -> drop "red_early"
  | Iface.Drop_link_down _ -> drop "link_down"
  | Iface.Drop_corrupted _ -> drop "corrupted"
  | (Iface.Enqueued _ | Iface.Transmit_start _ | Iface.Delivered _)
    when trace = 0 ->
      ()
  | Iface.Enqueued _ -> pkt.Packet.q_start <- time
  | Iface.Transmit_start _ ->
      let tid = net_track t sp router in
      let start = pkt.Packet.q_start in
      if start >= 0.0 then begin
        pkt.Packet.q_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"queue" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end;
      pkt.Packet.tx_start <- time
  | Iface.Delivered _ ->
      let tid = net_track t sp router in
      let start = pkt.Packet.tx_start in
      if start >= 0.0 then begin
        pkt.Packet.tx_start <- -1.0;
        ignore
          (Telemetry.Span.hop_span sp ~trace ~name:"transmit" ~pid ~tid ~start
             ~finish:time ~router ~next ~pkt:pkt.Packet.uid)
      end

let on_iface t ~time ~router ~next (ev : Iface.event) =
  (match ev with
  | Iface.Enqueued _ -> Telemetry.Metrics.inc t.enqueued
  | Iface.Drop_congestion _ -> Telemetry.Metrics.inc t.drop_congestion
  | Iface.Drop_red_early _ -> Telemetry.Metrics.inc t.drop_red_early
  | Iface.Drop_link_down _ -> Telemetry.Metrics.inc t.drop_link_down
  | Iface.Drop_corrupted _ -> Telemetry.Metrics.inc t.drop_corrupted
  | Iface.Transmit_start _ -> ()
  | Iface.Delivered _ -> Telemetry.Metrics.inc t.forwarded_hops);
  Telemetry.Journal.record t.journal (Link { time; router; next; ev });
  match t.tracer with
  | Some sp -> trace_iface t sp ~time ~router ~next ev
  | None -> ()

let trace_router t sp ~time ~router (ev : Router.event) =
  let pkt = router_packet ev in
  let trace = pkt.Packet.trace in
  let name, cat =
    match ev with
    | Router.Malicious_drop _ -> ("malicious drop", "malice")
    | Router.Malicious_modify _ -> ("malicious modify", "malice")
    | Router.Malicious_delay _ -> ("malicious delay", "malice")
    | Router.Fabricated _ -> ("fabricate", "malice")
    | Router.Fragmented _ -> ("fragment", "hop")
    | Router.No_route _ -> ("drop no_route", "drop")
    | Router.Ttl_expired _ -> ("drop ttl_expired", "drop")
    | Router.Delivered_local _ -> ("deliver", "packet")
  in
  (* Anomalies (malice and drops) are always recorded; routine
     hop/delivery events only for sampled packets. *)
  if trace <> 0 || cat = "malice" || cat = "drop" then begin
    let pid = Telemetry.Span.network_pid in
    let tid = net_track t sp router in
    let args =
      ("pkt", Telemetry.Export.Int pkt.Packet.uid)
      ::
      (match ev with
      | Router.Delivered_local _ ->
          [ ("latency", Telemetry.Export.Float (time -. pkt.Packet.created)) ]
      | Router.Malicious_delay { delay; _ } ->
          [ ("delay", Telemetry.Export.Float delay) ]
      | Router.Fragmented { fragments; _ } ->
          [ ("fragments", Telemetry.Export.Int fragments) ]
      | _ -> [])
    in
    ignore
      (Telemetry.Span.instant sp
         ?trace:(if trace <> 0 then Some trace else None)
         ~name ~cat ~pid ~tid ~time ~routers:[ router ] ~args ())
  end

let on_router t ~time ~router (ev : Router.event) =
  (match ev with
  | Router.Malicious_drop _ ->
      Telemetry.Metrics.inc t.drop_malicious;
      Telemetry.Metrics.inc (malice_counter t router)
  | Router.Malicious_modify _ ->
      Telemetry.Metrics.inc t.malicious_modify;
      Telemetry.Metrics.inc (malice_counter t router)
  | Router.Malicious_delay _ ->
      Telemetry.Metrics.inc t.malicious_delay;
      Telemetry.Metrics.inc (malice_counter t router)
  | Router.Fabricated _ ->
      Telemetry.Metrics.inc t.fabricated;
      Telemetry.Metrics.inc (malice_counter t router)
  | Router.Fragmented { fragments; _ } ->
      Telemetry.Metrics.inc t.fragmented_originals;
      Telemetry.Metrics.add t.fragments_created fragments
  | Router.No_route _ -> Telemetry.Metrics.inc t.drop_no_route
  | Router.Ttl_expired _ -> Telemetry.Metrics.inc t.drop_ttl_expired
  | Router.Delivered_local _ -> Telemetry.Metrics.inc t.delivered);
  Telemetry.Journal.record t.journal (Node { time; router; ev });
  match t.tracer with
  | Some sp -> trace_router t sp ~time ~router ev
  | None -> ()

let record_verdict t ~time ~detector ?subject ?(suspects = []) ?confidence ~alarm
    ?(detail = "") ?(evidence = []) () =
  Telemetry.Metrics.inc t.verdicts;
  if alarm then begin
    Telemetry.Metrics.inc t.alarms;
    if t.first_alarm_time = None then t.first_alarm_time <- Some time
  end;
  let v = { time; detector; subject; suspects; confidence; alarm; detail } in
  t.verdicts_rev <- v :: t.verdicts_rev;
  (match t.stats with
  | Some st -> Stats.on_verdict st ~time ~detector ~alarm
  | None -> ());
  Telemetry.Journal.record t.journal (Verdict v);
  match t.tracer with
  | None -> ()
  | Some sp ->
      ignore
        (Telemetry.Span.verdict sp ~time ~detector ?subject ~suspects ?confidence
           ~alarm ~detail ~evidence ())

let first_alarm_time t = t.first_alarm_time
let verdicts t = List.rev t.verdicts_rev
let faults_recorded t = Telemetry.Metrics.counter_value t.faults_injected

let record_fault t ~time ~kind ?(routers = []) ?(detail = "") () =
  Telemetry.Metrics.inc t.faults_injected;
  (match t.stats with Some st -> Stats.on_fault st ~time | None -> ());
  Telemetry.Journal.record t.journal (Fault { time; kind; routers; detail });
  match t.tracer with
  | None -> ()
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid "faults" in
      let args =
        ("kind", Telemetry.Export.String kind)
        :: (if detail = "" then []
            else [ ("detail", Telemetry.Export.String detail) ])
      in
      ignore
        (Telemetry.Span.instant sp ~name:("fault " ^ kind) ~cat:"fault" ~pid ~tid
           ~time ~routers ~args ())

(* Detector-side span helpers: record on the "detectors" process, one
   track per [track] name.  No-ops (returning [None]) without a tracer,
   so protocol code can call them unconditionally. *)

let trace_span t ~track ~name ?cat ~start ~finish ?routers ?args () =
  (* Round spans double as the always-on round-duration samples: the
     stats feed runs with or without a tracer attached. *)
  (match (t.stats, cat) with
  | Some st, Some "round" -> Stats.on_round st ~track ~start ~finish
  | _ -> ());
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some
        (Telemetry.Span.span sp ~name ?cat ~pid ~tid ~start ~finish ?routers ?args
           ())

let trace_instant t ~track ~name ?cat ~time ?routers ?args () =
  match t.tracer with
  | None -> None
  | Some sp ->
      let pid = Telemetry.Span.detector_pid in
      let tid = Telemetry.Span.thread sp ~pid track in
      Some (Telemetry.Span.instant sp ~name ?cat ~pid ~tid ~time ?routers ?args ())

(* --- conservation --- *)

let v = Telemetry.Metrics.counter_value

type conservation = {
  total_injected : int;   (* originate + fabricate + fragments *)
  total_delivered : int;
  total_dropped : int;    (* all causes *)
  total_fragmented : int; (* originals replaced by fragments *)
  in_flight : int;
}

let conservation t =
  let total_injected = v t.injected + v t.fabricated + v t.fragments_created in
  let total_delivered = v t.delivered in
  let total_dropped =
    v t.drop_congestion + v t.drop_red_early + v t.drop_link_down
    + v t.drop_corrupted + v t.drop_malicious + v t.drop_no_route
    + v t.drop_ttl_expired
  in
  let total_fragmented = v t.fragmented_originals in
  { total_injected; total_delivered; total_dropped; total_fragmented;
    in_flight = total_injected - total_delivered - total_dropped - total_fragmented }

(* --- formatting: the legacy Tracer line format, derived on demand --- *)

let describe_iface_kind = function
  | Iface.Enqueued _ -> "enqueue"
  | Iface.Drop_congestion _ -> "DROP-congestion"
  | Iface.Drop_red_early _ -> "DROP-red"
  | Iface.Drop_link_down _ -> "DROP-link-down"
  | Iface.Drop_corrupted _ -> "DROP-corrupted"
  | Iface.Transmit_start _ -> "transmit"
  | Iface.Delivered _ -> "deliver"

let describe_router_kind = function
  | Router.Malicious_drop _ -> "MALICIOUS-drop"
  | Router.Malicious_modify _ -> "MALICIOUS-modify"
  | Router.Malicious_delay { delay; _ } ->
      Printf.sprintf "MALICIOUS-delay(%.3fs)" delay
  | Router.Fabricated _ -> "MALICIOUS-fabricate"
  | Router.Fragmented { fragments; _ } -> Printf.sprintf "fragment(x%d)" fragments
  | Router.No_route _ -> "no-route"
  | Router.Ttl_expired _ -> "ttl-expired"
  | Router.Delivered_local _ -> "local-deliver"

let describe = function
  | Link { time; router; next; ev } ->
      Printf.sprintf "%.4f r%d->r%d %s %s" time router next (describe_iface_kind ev)
        (Packet.describe (iface_packet ev))
  | Node { time; router; ev } ->
      Printf.sprintf "%.4f r%d %s %s" time router (describe_router_kind ev)
        (Packet.describe (router_packet ev))
  | Verdict { time; detector; suspects; alarm; _ } ->
      Printf.sprintf "%.4f %s %s%s" time detector
        (if alarm then "ALARM" else "verdict")
        (match suspects with
        | [] -> ""
        | s -> " suspects=" ^ String.concat "," (List.map string_of_int s))
  | Fault { time; kind; routers; detail } ->
      Printf.sprintf "%.4f FAULT-%s%s%s" time kind
        (match routers with
        | [] -> ""
        | rs -> " r" ^ String.concat ",r" (List.map string_of_int rs))
        (if detail = "" then "" else " " ^ detail)

(* --- JSONL export --- *)

let event_time = function
  | Link { time; _ } | Node { time; _ } | Verdict { time; _ } | Fault { time; _ }
    ->
      time

let event_packet = function
  | Link { ev; _ } -> Some (iface_packet ev)
  | Node { ev; _ } -> Some (router_packet ev)
  | Verdict _ | Fault _ -> None

let json_of_packet (p : Packet.t) =
  Telemetry.Export.Assoc
    [ ("uid", Telemetry.Export.Int p.Packet.uid);
      ("src", Telemetry.Export.Int p.Packet.src);
      ("dst", Telemetry.Export.Int p.Packet.dst);
      ("flow", Telemetry.Export.Int p.Packet.flow);
      ("size", Telemetry.Export.Int p.Packet.size) ]

let json_of_event ev =
  let open Telemetry.Export in
  let base =
    match ev with
    | Link { router; next; ev; _ } ->
        [ ("event", String (describe_iface_kind ev));
          ("layer", String "link");
          ("router", Int router);
          ("next", Int next) ]
    | Node { router; ev; _ } ->
        [ ("event", String (describe_router_kind ev));
          ("layer", String "router");
          ("router", Int router) ]
    | Verdict { detector; subject; suspects; confidence; alarm; detail; _ } ->
        [ ("event", String "verdict");
          ("layer", String "detector");
          ("detector", String detector) ]
        @ (match subject with Some s -> [ ("router", Int s) ] | None -> [])
        @ [ ("suspects", List (List.map (fun s -> Int s) suspects)) ]
        @ (match confidence with
          | Some c -> [ ("confidence", Float c) ]
          | None -> [])
        @ [ ("alarm", Bool alarm) ]
        @ (if detail = "" then [] else [ ("detail", String detail) ])
    | Fault { kind; routers; detail; _ } ->
        [ ("event", String ("fault-" ^ kind));
          ("layer", String "fault");
          ("routers", List (List.map (fun r -> Int r) routers)) ]
        @ if detail = "" then [] else [ ("detail", String detail) ]
  in
  Assoc
    ((("time", Float (event_time ev)) :: base)
    @ match event_packet ev with Some p -> [ ("pkt", json_of_packet p) ] | None -> [])

let write_journal t oc =
  Telemetry.Journal.iter t.journal (fun ev ->
      Telemetry.Export.to_channel oc (json_of_event ev);
      output_char oc '\n')
