type phase = {
  name : string;
  mutable seconds : float;
  mutable calls : int;
}

type t = { mutable phases_rev : phase list }

let create () = { phases_rev = [] }

let phase t name =
  match List.find_opt (fun p -> p.name = name) t.phases_rev with
  | Some p -> p
  | None ->
      let p = { name; seconds = 0.0; calls = 0 } in
      t.phases_rev <- p :: t.phases_rev;
      p

let time t name f =
  let p = phase t name in
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      p.seconds <- p.seconds +. (Unix.gettimeofday () -. t0);
      p.calls <- p.calls + 1)
    f

let json t =
  Export.List
    (List.rev_map
       (fun p ->
         Export.Assoc
           [ ("phase", Export.String p.name);
             ("wall_seconds", Export.Float p.seconds);
             ("calls", Export.Int p.calls) ])
       t.phases_rev)
