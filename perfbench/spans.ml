(* In-memory span recorder for the traced run.

   A span is one call from the benchmark into a layer: a name of the
   form [layer.op], host start and end in nanoseconds, the span that was
   open when it started (its parent), an optional request id, and the
   minor words allocated while it was open. Spans nest by call order.
   Request-latency spans are asynchronous: they overlap other spans, so
   they carry no parent and take no part in self time.

   A disabled recorder costs one branch per call; [enter] returns -1 and
   [leave] ignores it. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let root = -1
let async = -2

type t = {
  enabled : bool;
  mutable n : int;
  mutable names : string array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable req : int array;
  mutable words : float array;
  mutable stack : int list;
}

let create ~enabled =
  let cap = if enabled then 1024 else 0 in
  {
    enabled;
    n = 0;
    names = Array.make cap "";
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap root;
    req = Array.make cap (-1);
    words = Array.make cap 0.;
    stack = [];
  }

let disabled = create ~enabled:false

let grow t =
  let cap = max 1024 (2 * Array.length t.start) in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- ext t.names "";
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent root;
  t.req <- ext t.req (-1);
  t.words <- ext t.words 0.

let push t name ~parent ~req ~start ~stop ~words =
  if t.n = Array.length t.start then grow t;
  let id = t.n in
  t.names.(id) <- name;
  t.start.(id) <- start;
  t.stop.(id) <- stop;
  t.parent.(id) <- parent;
  t.req.(id) <- req;
  t.words.(id) <- words;
  t.n <- id + 1;
  id

let enter ?(req = -1) t name =
  if not t.enabled then -1
  else begin
    let parent = match t.stack with p :: _ -> p | [] -> root in
    let id =
      push t name ~parent ~req ~start:(now_ns ()) ~stop:0
        ~words:(Gc.minor_words ())
    in
    t.stack <- id :: t.stack;
    id
  end

let leave t id =
  if id >= 0 then begin
    t.stop.(id) <- now_ns ();
    t.words.(id) <- Gc.minor_words () -. t.words.(id);
    match t.stack with
    | top :: rest when top = id -> t.stack <- rest
    | _ -> invalid_arg "Spans.leave: not the innermost open span"
  end

(* Close [id] and every span still open inside it (after an exception
   escaped a measured call). *)
let unwind t id =
  if id >= 0 && List.mem id t.stack then begin
    let stamp = now_ns () and w = Gc.minor_words () in
    let rec pop = function
      | top :: rest ->
          t.stop.(top) <- stamp;
          t.words.(top) <- w -. t.words.(top);
          if top = id then rest else pop rest
      | [] -> []
    in
    t.stack <- pop t.stack
  end

let with_span t name f =
  let id = enter t name in
  match f () with
  | v ->
      leave t id;
      v
  | exception e ->
      leave t id;
      raise e

(* An asynchronous span over an interval that was already measured. *)
let add_async t name ~req ~start ~stop =
  if t.enabled then
    ignore (push t name ~parent:async ~req ~start ~stop ~words:0.)

let length t = t.n
let name t i = t.names.(i)
let duration t i = t.stop.(i) - t.start.(i)
let parent t i = t.parent.(i)

(* [i] is [anc] or lies below it. *)
let rec under t i anc =
  i = anc || (let p = t.parent.(i) in p >= 0 && under t p anc)

(* Length of the union of [ivs] clipped to [lo, hi]. *)
let covered ~lo ~hi ivs =
  let ivs =
    List.filter_map
      (fun (a, b) ->
        let a = max a lo and b = min b hi in
        if b > a then Some (a, b) else None)
      ivs
  in
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc + (b - a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | None -> go acc (Some (a, b)) rest
        | Some (ca, cb) ->
            if a <= cb then go acc (Some (ca, max cb b)) rest
            else go (acc + (cb - ca)) (Some (a, b)) rest)
  in
  go 0 None ivs

(* Self time of every span: its duration minus the part of its interval
   that its children cover (overlapping children count once). Self
   minor words: its words minus its children's. Async spans get 0. *)
let self t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init t.n (fun i ->
      if t.parent.(i) = async then (0, 0.)
      else
        let ks = kids.(i) in
        let cov =
          covered ~lo:t.start.(i) ~hi:t.stop.(i)
            (List.map (fun k -> (t.start.(k), t.stop.(k))) ks)
        in
        let w = List.fold_left (fun a k -> a -. t.words.(k)) t.words.(i) ks in
        (duration t i - cov, Float.max 0. w))

type row = { r_name : string; r_ns : int; r_calls : int; r_words : float }

(* Self time summed per span name, largest first. *)
let table t =
  let s = self t in
  let h = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    if t.parent.(i) <> async then begin
      let ns, w = s.(i) in
      let r =
        match Hashtbl.find_opt h t.names.(i) with
        | Some r -> r
        | None -> { r_name = t.names.(i); r_ns = 0; r_calls = 0; r_words = 0. }
      in
      Hashtbl.replace h t.names.(i)
        { r with r_ns = r.r_ns + ns; r_calls = r.r_calls + 1;
                 r_words = r.r_words +. w }
    end
  done;
  List.sort (fun a b -> compare b.r_ns a.r_ns) (Hashtbl.fold (fun _ r a -> r :: a) h [])

(* Chrome trace_event JSON: nested spans as complete ("X") events,
   request-latency spans as async begin/end pairs keyed by request id.
   Timestamps are host microseconds from the first span; the [meta]
   key/value pairs go into otherData. *)
let to_chrome_json ~meta t =
  let b = Buffer.create (t.n * 96 + 256) in
  let t0 = if t.n = 0 then 0 else Array.fold_left min max_int (Array.sub t.start 0 t.n) in
  let us x = float (x - t0) /. 1000. in
  let layer nm = match String.index_opt nm '.' with Some k -> String.sub nm 0 k | None -> nm in
  Buffer.add_string b "{\"traceEvents\":[";
  for i = 0 to t.n - 1 do
    if i > 0 then Buffer.add_char b ',';
    let nm = t.names.(i) in
    if t.parent.(i) = async then
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"b\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":1},\
         {\"name\":%S,\"cat\":%S,\"ph\":\"e\",\"id\":%d,\"ts\":%.3f,\"pid\":1,\"tid\":1}"
        nm (layer nm) t.req.(i) (us t.start.(i)) nm (layer nm) t.req.(i)
        (us t.stop.(i))
    else
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d,\"minor_words\":%.0f}}"
        nm (layer nm) (us t.start.(i)) (float (duration t i) /. 1000.) i
        t.parent.(i) t.req.(i) t.words.(i)
  done;
  Buffer.add_string b "],\"otherData\":{";
  List.iteri
    (fun k (key, v) ->
      if k > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%S" key v)
    meta;
  Buffer.add_string b "}}";
  Buffer.contents b
