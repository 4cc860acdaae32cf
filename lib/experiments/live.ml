(* mrdetect top: a terminal dashboard over the always-on Stats
   collectors, rendered from whatever the simulation has recorded so
   far.  Pure string building — the driver decides how to paint it
   (ANSI repaint on a TTY, a single final frame otherwise). *)

module Stats = Netsim.Stats
module Ts = Telemetry.Timeseries
module Hist = Telemetry.Hist

let blocks = [| "\xe2\x96\x81"; "\xe2\x96\x82"; "\xe2\x96\x83"; "\xe2\x96\x84";
                "\xe2\x96\x85"; "\xe2\x96\x86"; "\xe2\x96\x87"; "\xe2\x96\x88" |]

(* Unicode block sparkline over the last [width] buckets. *)
let spark ?(width = 48) values =
  let n = Array.length values in
  let first = max 0 (n - width) in
  let vmax = Array.fold_left max 1 values in
  let buf = Buffer.create (4 * width) in
  for i = first to n - 1 do
    let level = values.(i) * (Array.length blocks - 1) / vmax in
    Buffer.add_string buf blocks.(level)
  done;
  Buffer.contents buf

let series_counts ts = Array.init (Ts.used ts) (Ts.bucket_count ts)

(* Mean rate over the trailing second of recorded buckets. *)
let recent_rate ts =
  let used = Ts.used ts in
  if used = 0 then 0.0
  else begin
    let res = Ts.resolution ts in
    let window = max 1 (int_of_float (Float.round (1.0 /. res))) in
    let first = max 0 (used - window) in
    let n = ref 0 in
    for i = first to used - 1 do
      n := !n + Ts.bucket_count ts i
    done;
    float_of_int !n /. (float_of_int (used - first) *. res)
  end

let ms v = Printf.sprintf "%.1f ms" (v *. 1e3)

let render ~now ~duration st =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "mrdetect top — %.1f / %.1f sim s" now duration;
  line "";
  let series =
    [ ("injected", Stats.injected st); ("delivered", Stats.delivered st);
      ("dropped", Stats.dropped st); ("malice", Stats.malice st);
      ("alarms", Stats.alarms st) ]
  in
  List.iter
    (fun (name, ts) ->
      line "  %-9s %8d  %7.1f/s  %s" name (Ts.total_count ts) (recent_rate ts)
        (spark (series_counts ts)))
    series;
  line "";
  let lat = Stats.delivery_latency st in
  if Hist.count lat > 0 then
    line "  latency   p50 %s  p95 %s  p99 %s  (%d delivered)" (ms (Hist.p50 lat))
      (ms (Hist.p95 lat)) (ms (Hist.p99 lat)) (Hist.count lat);
  List.iter
    (fun (proto, h) ->
      line "  round %-8s p50 %s  p95 %s  (%d rounds)" proto (ms (Hist.p50 h))
        (ms (Hist.p95 h)) (Hist.count h))
    (Stats.round_durations st);
  List.iter
    (fun (det, h) ->
      line "  detect %-7s p50 %.1f s  (%d alarms past attack start)" det
        (Hist.p50 h) (Hist.count h))
    (Stats.detection_latencies st);
  if Stats.ctrl_sends st > 0 then
    line "  ctrl      %d sends, %d timeouts, attempts p95 %.0f"
      (Stats.ctrl_sends st) (Stats.ctrl_timeouts st)
      (Hist.p95 (Stats.ctrl_attempts_hist st));
  line "";
  line "  queue depth (per-bucket mean)";
  for r = 0 to Stats.routers st - 1 do
    let ts = Stats.queue_depth st r in
    let means =
      Array.init (Ts.used ts) (fun i ->
          let c = Ts.bucket_count ts i in
          if c = 0 then 0
          else
            int_of_float (Float.round (float_of_int (Ts.bucket_sum ts i) /. float_of_int c)))
    in
    line "  r%-2d %s" r (spark means)
  done;
  Buffer.contents buf
