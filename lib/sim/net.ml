type handler = src:int -> string -> unit

type link = {
  l_msgs : Obs.Metric.counter;
  l_bytes : Obs.Metric.counter;
  l_drops : Obs.Metric.counter;
}

type t = {
  eng : Engine.t;
  rng : Rng.t;
  base_latency : float;
  jitter_mean : float;
  mutable latency_factor : float;
  handlers : (int * string, handler) Hashtbl.t;
  last_delivery : (int * int, float) Hashtbl.t;
  blocked : (int * int, unit) Hashtbl.t;
  mutable drop_probability : float;
  c_msgs : Obs.Metric.counter;
  c_bytes : Obs.Metric.counter;
  c_drops : Obs.Metric.counter;
  links : (int * int, link) Hashtbl.t;
  port_bytes : (string, Obs.Metric.counter) Hashtbl.t;
}

let create ?(base_latency = 50e-6) ?(jitter_mean = 20e-6) eng =
  let obs = Engine.obs eng in
  {
    eng;
    rng = Rng.split (Engine.rng eng);
    base_latency;
    jitter_mean;
    latency_factor = 1.;
    handlers = Hashtbl.create 32;
    last_delivery = Hashtbl.create 32;
    blocked = Hashtbl.create 8;
    drop_probability = 0.;
    c_msgs = Obs.counter obs ~subsystem:"net" "messages";
    c_bytes = Obs.counter obs ~subsystem:"net" "bytes";
    c_drops = Obs.counter obs ~subsystem:"net" "drops";
    links = Hashtbl.create 32;
    port_bytes = Hashtbl.create 16;
  }

let engine t = t.eng
let register t ~node ~port h = Hashtbl.replace t.handlers (node, port) h
let set_drop_probability t p = t.drop_probability <- p

let set_latency_factor t f =
  if f <= 0. then invalid_arg "Net.set_latency_factor";
  t.latency_factor <- f

let latency_factor t = t.latency_factor

let link t ~src ~dst =
  match Hashtbl.find_opt t.links (src, dst) with
  | Some l -> l
  | None ->
    let obs = Engine.obs t.eng in
    let labels = [ ("src", string_of_int src); ("dst", string_of_int dst) ] in
    let l =
      {
        l_msgs = Obs.counter obs ~subsystem:"net" ~labels "link_messages";
        l_bytes = Obs.counter obs ~subsystem:"net" ~labels "link_bytes";
        l_drops = Obs.counter obs ~subsystem:"net" ~labels "link_drops";
      }
    in
    Hashtbl.replace t.links (src, dst) l;
    l

let port_counter t port =
  match Hashtbl.find_opt t.port_bytes port with
  | Some c -> c
  | None ->
    let c =
      Obs.counter (Engine.obs t.eng) ~subsystem:"net"
        ~labels:[ ("port", port) ] "port_bytes"
    in
    Hashtbl.replace t.port_bytes port c;
    c

let partition t a b =
  Hashtbl.replace t.blocked (a, b) ();
  Hashtbl.replace t.blocked (b, a) ()

let heal t a b =
  Hashtbl.remove t.blocked (a, b);
  Hashtbl.remove t.blocked (b, a)

let heal_all t = Hashtbl.reset t.blocked
let messages_sent t = Obs.Metric.value t.c_msgs
let bytes_sent t = Obs.Metric.value t.c_bytes
let messages_dropped t = Obs.Metric.value t.c_drops

let bytes_sent_on_port t port =
  match Hashtbl.find_opt t.port_bytes port with
  | Some c -> Obs.Metric.value c
  | None -> 0

let reset_stats t =
  Obs.Metric.reset t.c_msgs;
  Obs.Metric.reset t.c_bytes;
  Obs.Metric.reset t.c_drops;
  Hashtbl.iter (fun _ l ->
      Obs.Metric.reset l.l_msgs;
      Obs.Metric.reset l.l_bytes;
      Obs.Metric.reset l.l_drops)
    t.links;
  Hashtbl.iter (fun _ c -> Obs.Metric.reset c) t.port_bytes

let send_live t ~src ~dst ~port payload =
  let len = String.length payload in
  let l = link t ~src ~dst in
  Obs.Metric.incr t.c_msgs;
  Obs.Metric.add t.c_bytes len;
  Obs.Metric.incr l.l_msgs;
  Obs.Metric.add l.l_bytes len;
  Obs.Metric.add (port_counter t port) len;
  let dropped =
    Hashtbl.mem t.blocked (src, dst)
    || (t.drop_probability > 0. && Rng.float t.rng 1.0 < t.drop_probability)
  in
  if dropped then begin
    Obs.Metric.incr t.c_drops;
    Obs.Metric.incr l.l_drops
  end
  else begin
    let latency =
      t.latency_factor
      *. (t.base_latency +. Rng.exponential t.rng ~mean:t.jitter_mean)
    in
    let sent = Engine.clock t.eng in
    let arrival = sent +. latency in
    (* FIFO per directed pair: never deliver before an earlier message. *)
    let floor =
      Option.value (Hashtbl.find_opt t.last_delivery (src, dst)) ~default:0.
    in
    let at = Float.max arrival (floor +. 1e-12) in
    Hashtbl.replace t.last_delivery (src, dst) at;
    Engine.schedule t.eng ~at (fun () ->
        if Engine.node_alive t.eng dst then
          match Hashtbl.find_opt t.handlers (dst, port) with
          | None -> ()
          | Some h ->
            let sp = Obs.spans (Engine.obs t.eng) in
            if Obs.Span.enabled sp then
              Obs.Span.complete sp ~cat:"net" ~pid:dst ~name:("net:" ^ port)
                ~ts:sent ~dur:(at -. sent) ();
            Engine.spawn_immediate t.eng ~node:dst ~name:("net:" ^ port)
              (fun () -> h ~src payload))
  end

(* A crashed node sends nothing, and neither does a fiber left over from
   an earlier incarnation of a restarted one. *)
let send t ~src ~dst ~port payload =
  if Engine.sender_alive t.eng src then send_live t ~src ~dst ~port payload
