(* The repository's benchmark: four fixed workloads, each checked against
   the benchmark's own model, printing one JSON result line.

     main.exe --workload tree-mem|tree-paged|net-mem|net-wal
              --seed N --seconds S --trace 0|1 [--corrupt-model]

   --trace 0 reports the end-to-end metrics; --trace 1 alternates
   untraced and traced chunks and reports the per-layer metrics. See
   README.md for the workloads, the metrics and what each should move. *)

open Repro_storage
open Repro_util
module Tree_intf = Repro_baseline.Tree_intf
module Handle = Repro_core.Handle
module Validate = Repro_core.Validate
module P = Repro_server.Protocol
module Server = Repro_server.Server
module Paged_int = Tree_intf.Paged_int
module Sagiv_disk = Tree_intf.Sagiv_disk
module Sagiv_mem = Repro_core.Sagiv.Make (Key.Int)
module Validate_mem = Validate.Make (Key.Int)
module Validate_disk = Validate.Make_on_store (Key.Int) (Paged_int)
module Codec = Page_codec.Make (Key.Int)
module IM = Map.Make (Int)
module Hist = Span.Hist

let now = Span.now
let order = 16
let depth = 64 (* network pipeline depth: requests per batch *)
let chunk_batches = 32 (* network batches per chunk *)
let net_window = 8 (* network chunks per latency window: 16384 requests *)
let split_tolerance = 0.10
let out_dir = Filename.concat ".bench_build" "perfbench"

(* ------------------------------------------------------------------ *)
(* Operations and the model                                            *)
(* ------------------------------------------------------------------ *)

let k_search = 0
let k_insert = 1
let k_delete = 2
let k_range = 3

(* percentages; [span] is a range's key width *)
type mix = { search : int; insert : int; delete : int; span : int }

type chunk = {
  kind : int array;
  key : int array;
  arg : int array;  (** insert value, or range hi *)
  res : int array;
  len : int;
}

let make_chunk len =
  let z () = Array.make len 0 in
  { kind = z (); key = z (); arg = z (); res = z (); len }

let gen_chunk c rng ~pick mix =
  for i = 0 to c.len - 1 do
    let r = Splitmix.int rng 100 and k = pick rng in
    c.key.(i) <- k;
    if r < mix.search then c.kind.(i) <- k_search
    else if r < mix.search + mix.insert then begin
      c.kind.(i) <- k_insert;
      c.arg.(i) <- Splitmix.int rng 1_000_000_000
    end
    else if r < mix.search + mix.insert + mix.delete then c.kind.(i) <- k_delete
    else begin
      c.kind.(i) <- k_range;
      c.arg.(i) <- k + mix.span - 1
    end
  done

let model_range m ~lo ~hi =
  let rec take acc s =
    match s () with
    | Seq.Cons ((k, v), rest) when k <= hi -> take ((k, v) :: acc) rest
    | _ -> List.rev acc
  in
  take [] (IM.to_seq_from lo m)

(* Check one point-operation result against the model and advance the
   model; [true] when they agree. *)
let check_op m kind k a res =
  if kind = k_search then
    (match IM.find_opt k !m with Some v -> v | None -> -1) = res
  else if kind = k_insert then
    if IM.mem k !m then res = 0
    else begin
      m := IM.add k a !m;
      res = 1
    end
  else if IM.mem k !m then begin
    m := IM.remove k !m;
    res = 1
  end
  else res = 0

(* A sorted preload: each key below [keys] kept with probability 1/2. *)
let preload rng ~keys =
  let acc = ref [] in
  for k = keys - 1 downto 0 do
    if Splitmix.int rng 2 = 0 then acc := (k, Splitmix.int rng 1_000_000_000) :: !acc
  done;
  !acc

let model_of pairs = List.fold_left (fun m (k, v) -> IM.add k v m) IM.empty pairs

(* With --corrupt-model, the end check compares against a model with one
   value changed: the run must then report a failed operation. *)
let corrupt_model = ref false

let corrupt m =
  match IM.max_binding_opt m with
  | Some (k, v) -> IM.add k (v + 1) m
  | None -> m

(* ------------------------------------------------------------------ *)
(* Outcome of a run                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  mutable attempted : int;
  mutable failed : int;
  lat : Hist.t;  (** latency of the current window, ns *)
  mutable samples : int;  (** latency samples over all windows *)
  mutable p50s : float list;  (** per window, ns *)
  mutable p99s : float list;
  mutable ops : int;  (** untraced measured operations *)
  mutable time_ns : int;
  mutable steal_ns : int;  (** host steal inside [time_ns] *)
  mutable t_ops : int;  (** traced measured operations *)
  mutable t_time_ns : int;
  mutable t_steal_ns : int;
  mutable setup : float list;  (** seconds, one per set-up *)
  mutable ppk : float list;  (** live pages per 1000 live keys, per shape *)
  mutable store : float list;  (** store bytes, per shape *)
  mutable height : int;
  (* layer counters over traced chunks *)
  sagiv : int array;  (** gets, locks, link follows, restarts, splits *)
  io : Stats.io;
  mutable evictions : int;
  mutable codec : float * float;  (** encode, decode ns per page *)
  mutable samp_lat : int;  (** summed timer latency of sampled roots *)
  mutable samp : int;
  (* network *)
  mutable max_pipeline : int;  (** most frames one server drain held *)
  mutable net_bytes : int;  (** request + response bytes over them *)
  mutable replay_enc_ns : int;
  mutable replay_dec_ns : int;
  mutable replay_frames : int;
  mutable wal_bytes : int;
  mutable writes : int;
}

let outcome () =
  {
    attempted = 0;
    failed = 0;
    lat = Hist.create ();
    samples = 0;
    p50s = [];
    p99s = [];
    ops = 0;
    time_ns = 0;
    steal_ns = 0;
    t_ops = 0;
    t_time_ns = 0;
    t_steal_ns = 0;
    setup = [];
    ppk = [];
    store = [];
    height = 0;
    sagiv = Array.make 5 0;
    io = Stats.io_create ();
    evictions = 0;
    codec = (0.0, 0.0);
    samp_lat = 0;
    samp = 0;
    max_pipeline = 0;
    net_bytes = 0;
    replay_enc_ns = 0;
    replay_dec_ns = 0;
    replay_frames = 0;
    wal_bytes = 0;
    writes = 0;
  }

(* Host steal. On a virtual machine the host can hold a virtual CPU
   while the benchmark wants it to run; /proc/stat counts that time per
   CPU in its steal column (1/100 s). A chunk brackets its execution with
   two readings. The share of the bracket in which some CPU was held is
   estimated as 1 - prod (1 - f_i) over the CPUs' steal shares f_i (taken
   as independent), and that share of the chunk's timed part is left out
   of the throughput metrics: while one of the workers, the server or the
   client waits for a held CPU, the others soon wait for it too (barrier,
   latch, socket, stop-the-world minor collection). An idle CPU is not
   held, so a process pinned to one CPU sees only its own CPU's steal.
   Where /proc/stat is missing the steal reads 0 and the throughput is
   plain wall clock. *)
let steal_ns () =
  match
    In_channel.with_open_text "/proc/stat" (fun ic ->
        let rec cpus acc =
          match In_channel.input_line ic with
          | Some line when String.length line > 3 && String.sub line 0 3 = "cpu" -> (
              match List.filter (( <> ) "") (String.split_on_char ' ' line) with
              | name :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ when name <> "cpu" ->
                  let t = Option.value (int_of_string_opt steal) ~default:0 in
                  cpus ((t * 10_000_000) :: acc)
              | _ -> cpus acc)
          | _ -> Array.of_list (List.rev acc)
        in
        cpus [])
  with
  | a -> a
  | exception Sys_error _ -> [||]

type bracket = { at : int; steal : int array }

let bracket () = { at = now (); steal = steal_ns () }

(* the steal of [b0..now] that falls in [wall] of it *)
let steal_in b0 ~wall =
  let b1 = bracket () in
  let span = float_of_int (b1.at - b0.at) in
  if span <= 0.0 || Array.length b1.steal <> Array.length b0.steal then 0
  else begin
    let running = ref 1.0 in
    Array.iteri
      (fun i s1 ->
        let f = float_of_int (s1 - b0.steal.(i)) /. span in
        running := !running *. (1.0 -. Float.min 1.0 (Float.max 0.0 f)))
      b1.steal;
    int_of_float ((1.0 -. !running) *. float_of_int wall)
  end

let account o ~traced ~wall ~steal ~ops =
  if traced then begin
    o.t_ops <- o.t_ops + ops;
    o.t_time_ns <- o.t_time_ns + wall;
    o.t_steal_ns <- o.t_steal_ns + steal
  end
  else begin
    o.ops <- o.ops + ops;
    o.time_ns <- o.time_ns + wall;
    o.steal_ns <- o.steal_ns + steal
  end

(* Latency percentiles are taken per window of measured, untraced work
   (one chunk in-process, [net_window] chunks over the network) and
   reported as the median over the run's windows, so that a stall that
   hits part of a run moves them little. *)
let close_window o =
  if Hist.count o.lat > 0 then begin
    o.p50s <- Hist.quantile o.lat 0.50 :: o.p50s;
    o.p99s <- Hist.quantile o.lat 0.99 :: o.p99s;
    o.samples <- o.samples + Hist.count o.lat;
    Hist.clear o.lat
  end

let stats_vec (s : Stats.t) =
  [| s.gets; s.lock_acquisitions; s.link_follows; s.restarts; s.splits |]

let add_stats o before after =
  Array.iteri (fun i v -> o.sagiv.(i) <- o.sagiv.(i) + v - before.(i)) after

(* paged-store counters: snapshot before a traced chunk, delta after *)
let io_snap s =
  ( Paged_int.io_stats s,
    Paged_int.cached_nodes s - Paged_int.total_allocated s
    + Paged_int.total_freed s )

let add_io o (b, cached_b) s =
  let a, cached_a = io_snap s and d = o.io in
  d.Stats.faults <- d.Stats.faults + a.Stats.faults - b.Stats.faults;
  d.fault_stall_s <- d.fault_stall_s +. a.fault_stall_s -. b.fault_stall_s;
  d.inline_writebacks <-
    d.inline_writebacks + a.inline_writebacks - b.inline_writebacks;
  d.queued_writebacks <-
    d.queued_writebacks + a.queued_writebacks - b.queued_writebacks;
  d.commit_groups <- d.commit_groups + a.commit_groups - b.commit_groups;
  d.wal_records <- d.wal_records + a.wal_records - b.wal_records;
  d.wal_fsyncs <- d.wal_fsyncs + a.wal_fsyncs - b.wal_fsyncs;
  (* faults and allocations install nodes, releases drop them: what the
     cache did not grow by beyond that was evicted *)
  o.evictions <- o.evictions + (a.faults - b.faults) - (cached_a - cached_b)

(* The store's own pages, encoded and decoded: ns per page each way. *)
let time_codec (store : Paged_int.t) =
  let nodes = ref [] and n = ref 0 in
  (try
     Paged_int.iter store (fun _ node ->
         nodes := node :: !nodes;
         incr n;
         if !n >= 2000 then raise Exit)
   with Exit -> ());
  let nodes = Array.of_list !nodes in
  let encoded = Array.map Codec.to_bytes nodes in
  let buf = Buffer.create 8192 and passes = 5 in
  let t0 = now () in
  for _ = 1 to passes do
    Array.iter
      (fun nd ->
        Buffer.clear buf;
        Codec.encode buf nd)
      nodes
  done;
  let t1 = now () in
  for _ = 1 to passes do
    Array.iter (fun b -> ignore (Codec.decode b ~pos:0)) encoded
  done;
  let t2 = now () in
  let per = float_of_int (max 1 (passes * Array.length nodes)) in
  (float_of_int (t1 - t0) /. per, float_of_int (t2 - t1) /. per)

(* End-of-run check of a quiescent tree against the model: invariants,
   page leaks, cardinality and a full ordered scan. *)
let final_check o ~label ~(report : Validate.report) ~leaks ~cardinal ~scan
    ~model =
  let fail what =
    o.failed <- o.failed + 1;
    Printf.eprintf "CHECK FAILED (%s): %s\n%!" label what
  in
  o.attempted <- o.attempted + 4;
  let model = if !corrupt_model then corrupt model else model in
  if not (Validate.ok report) then
    fail (String.concat "; " (List.filteri (fun i _ -> i < 5) report.errors));
  if leaks <> 0 then fail (Printf.sprintf "%d leaked pages" leaks);
  let size = IM.cardinal model in
  if cardinal <> size then
    fail (Printf.sprintf "cardinal %d, model %d" cardinal size);
  let bad = ref 0 in
  let rest =
    List.fold_left
      (fun s (k, v) ->
        match s () with
        | Seq.Cons ((mk, mv), rest) ->
            if mk <> k || mv <> v then incr bad;
            rest
        | Seq.Nil ->
            incr bad;
            s)
      (IM.to_seq model) scan
  in
  (match rest () with Seq.Nil -> () | Seq.Cons _ -> incr bad);
  if !bad > 0 then
    fail (Printf.sprintf "full scan differs from the model at %d pairs" !bad)

let pages_per_kkey (r : Validate.report) =
  1000.0 *. float_of_int r.total_nodes /. float_of_int (max 1 r.total_keys)

(* Record the tree's shape: pages per 1000 keys and store bytes. Taken
   after a fixed number of measured chunks, so that it does not depend
   on how fast the run went. *)
let record_shape o shape =
  let ppk, bytes = shape () in
  o.ppk <- ppk :: o.ppk;
  o.store <- bytes :: o.store

let scan_of fold =
  List.rev (fold ~init:[] (fun acc k v -> (k, v) :: acc))

(* ------------------------------------------------------------------ *)
(* In-process workloads: workers in lock step over fixed chunks        *)
(* ------------------------------------------------------------------ *)

type tree = {
  plain : Tree_intf.handle;
  traced : Tree_intf.handle;  (** the same tree through the timing wrappers *)
  check : outcome -> model:int IM.t -> unit;
  shape : unit -> float * float;
  paged : Paged_int.t option;
}

type worker = {
  ctx : Handle.ctx;
  mutable rng : Splitmix.t;
  mutable model : int IM.t;
  chunk : chunk;
  pick : Splitmix.t -> int;
  hist : Hist.t;
  mutable bad : int;
  mutable done_ops : int;
  mutable samp_lat : int;
  mutable samp : int;
  tstats : int array;
}

let apply (h : Tree_intf.handle) ctx kind k a =
  if kind = k_search then match h.search ctx k with Some v -> v | None -> -1
  else if kind = k_insert then
    match h.insert ctx k a with `Ok -> 1 | `Duplicate -> 0
  else if h.delete ctx k then 1
  else 0

let exec_chunk h w ~sample ~record =
  let c = w.chunk in
  for i = 0 to c.len - 1 do
    let sampled = sample > 0 && i mod sample = 0 in
    let root = if sampled then Span.root Span.n_op else -1 in
    let t0 = now () in
    let r = apply h w.ctx c.kind.(i) c.key.(i) c.arg.(i) in
    let t1 = now () in
    Span.leave root;
    c.res.(i) <- r;
    if record then Hist.add w.hist (t1 - t0);
    if sampled then begin
      w.samp_lat <- w.samp_lat + (t1 - t0);
      w.samp <- w.samp + 1
    end
  done

let verify_chunk w =
  let m = ref w.model and c = w.chunk in
  for i = 0 to c.len - 1 do
    if not (check_op m c.kind.(i) c.key.(i) c.arg.(i) c.res.(i)) then
      w.bad <- w.bad + 1
  done;
  w.model <- !m;
  w.done_ops <- w.done_ops + c.len

type barrier = { arrived : int Atomic.t; gen : int Atomic.t; parties : int }

let await b =
  let g = Atomic.get b.gen in
  if Atomic.fetch_and_add b.arrived 1 = b.parties - 1 then begin
    Atomic.set b.arrived 0;
    Atomic.incr b.gen
  end
  else while Atomic.get b.gen = g do Domain.cpu_relax () done

(* Every worker runs chunk [c] on its own domain between two barriers;
   worker 0 times the chunk (wall clock between the barriers), accounts
   it, and decides whether another follows. Verification against the
   model and generation of the next chunk run outside the timed part. *)
let lockstep o (t : tree) (ws : worker array) ~mix ~traced ~sample ~on_chunk =
  let n = Array.length ws in
  let bar = { arrived = Atomic.make 0; gen = Atomic.make 0; parties = n } in
  let stop = Atomic.make false and start = ref 0 and io0 = ref None in
  let b0 = ref (bracket ()) in
  let body d =
    let w = ws.(d) in
    let rec loop c =
      let tr = traced c in
      let h = if tr then t.traced else t.plain in
      let before = stats_vec w.ctx.stats in
      (if d = 0 && tr then
         match t.paged with Some s -> io0 := Some (io_snap s) | None -> ());
      if d = 0 then b0 := bracket ();
      await bar;
      if d = 0 then start := now ();
      exec_chunk h w ~sample:(if tr then sample else 0) ~record:(not tr);
      await bar;
      if d = 0 then begin
        let wall = now () - !start in
        let steal = steal_in !b0 ~wall in
        (match (t.paged, !io0) with
        | Some s, Some snap when tr -> add_io o snap s
        | _ -> ());
        if on_chunk ~traced:tr ~wall ~steal ~ops:(n * w.chunk.len) then
          Atomic.set stop true
      end;
      if tr then
        Array.iteri
          (fun i v -> w.tstats.(i) <- w.tstats.(i) + v - before.(i))
          (stats_vec w.ctx.stats);
      verify_chunk w;
      gen_chunk w.chunk w.rng ~pick:w.pick mix;
      await bar;
      if not (Atomic.get stop) then loop (c + 1)
    in
    gen_chunk w.chunk w.rng ~pick:w.pick mix;
    loop 0
  in
  let ds = List.init (n - 1) (fun i -> Domain.spawn (fun () -> body (i + 1))) in
  body 0;
  List.iter Domain.join ds

type inproc = {
  workers : int;
  pairs : (int * int) list;  (** sorted preload *)
  owner : int -> int;  (** which worker's model holds a key *)
  picks : (Splitmix.t -> int) array;
  mix : mix;
  chunk_ops : int;  (** per worker *)
  warm_chunks : int;
  sample : int;  (** traced chunks: one sampled root per [sample] ops *)
  shape_chunk : int;  (** measured chunks before the shape is recorded *)
  setup_reps : int;  (** set-ups per run; the last is measured *)
  build : (int * int) list -> tree;
}

let run_inproc o (w : inproc) ~rng ~seconds ~trace =
  let models = Array.make w.workers IM.empty in
  List.iter
    (fun (k, v) ->
      let d = w.owner k in
      models.(d) <- IM.add k v models.(d))
    w.pairs;
  let warm_rngs = Array.init w.workers (fun _ -> Splitmix.split rng) in
  let ws =
    Array.init w.workers (fun d ->
        {
          ctx = Handle.ctx ~slot:d;
          rng = warm_rngs.(d);
          model = models.(d);
          chunk = make_chunk w.chunk_ops;
          pick = w.picks.(d);
          hist = Hist.create ();
          bad = 0;
          done_ops = 0;
          samp_lat = 0;
          samp = 0;
          tstats = Array.make 5 0;
        })
  in
  (* set up several times on fresh trees replaying the same warm-up; the
     last one is measured *)
  let tree = ref None in
  for rep = 1 to w.setup_reps do
    tree := None;
    Gc.compact ();
    Array.iteri
      (fun d wk ->
        wk.rng <- Splitmix.copy warm_rngs.(d);
        wk.model <- models.(d))
      ws;
    let t0 = now () in
    let t = w.build w.pairs in
    let setup = ref (now () - t0) in
    let warmed = ref 0 in
    lockstep o t ws ~mix:w.mix ~traced:(fun _ -> false) ~sample:0
      ~on_chunk:(fun ~traced:_ ~wall ~steal:_ ~ops:_ ->
        setup := !setup + wall;
        incr warmed;
        !warmed >= w.warm_chunks);
    if rep = w.setup_reps then Array.iter (fun wk -> Hist.clear wk.hist) ws;
    o.setup <- (float_of_int !setup *. 1e-9) :: o.setup;
    tree := Some t
  done;
  let t = Option.get !tree in
  (* start the measured phase at the same point of the major GC cycle in
     every run *)
  Gc.compact ();
  let measured = ref 0 and limit = int_of_float (seconds *. 1e9) in
  let chunks = ref 0 in
  lockstep o t ws ~mix:w.mix
    ~traced:(fun c -> trace && c mod 2 = 1)
    ~sample:w.sample
    ~on_chunk:(fun ~traced ~wall ~steal ~ops ->
      account o ~traced ~wall ~steal ~ops;
      (* the other workers are past the chunk's end barrier: their
         histograms and the tree are quiescent *)
      Array.iter
        (fun wk ->
          Hist.merge ~into:o.lat wk.hist;
          Hist.clear wk.hist)
        ws;
      close_window o;
      measured := !measured + wall;
      incr chunks;
      if !chunks = w.shape_chunk then record_shape o t.shape;
      !measured >= limit);
  if !chunks < w.shape_chunk then record_shape o t.shape;
  Array.iter
    (fun wk ->
      o.attempted <- o.attempted + wk.done_ops;
      o.failed <- o.failed + wk.bad;
      o.samp_lat <- o.samp_lat + wk.samp_lat;
      o.samp <- o.samp + wk.samp;
      Array.iteri (fun i v -> o.sagiv.(i) <- o.sagiv.(i) + v) wk.tstats)
    ws;
  o.height <- t.plain.height ();
  let model =
    Array.fold_left
      (fun acc wk -> IM.union (fun _ a _ -> Some a) acc wk.model)
      IM.empty ws
  in
  t.check o ~model;
  match t.paged with Some s when trace -> o.codec <- time_codec s | _ -> ()

(* ------------------------------------------------------------------ *)
(* Network workloads: one pipelining client over loopback TCP          *)
(* ------------------------------------------------------------------ *)

(* The client loop of [Repro_client.Client.pipeline], kept here so that
   encoding, decoding and the socket round trip are timed apart and the
   round trip can be published as the parent of the server's spans. *)
type conn = {
  fd : Unix.file_descr;
  out : Buffer.t;
  mutable buf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable seq : int;
  mutable read_bytes : int;
  mutable sent_bytes : int;
}

let connect addr =
  let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) SOCK_STREAM 0 in
  Unix.connect fd addr;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  {
    fd;
    out = Buffer.create 8192;
    buf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    seq = 0;
    read_bytes = 0;
    sent_bytes = 0;
  }

let rec read_frame cn =
  let s = Span.enter Span.n_decode in
  let d = P.decode_response cn.buf ~pos:cn.lo ~len:(cn.hi - cn.lo) in
  Span.leave s;
  match d with
  | P.Frame { seq; body; consumed } ->
      cn.lo <- cn.lo + consumed;
      (seq, body)
  | P.Need_more ->
      if cn.lo > 0 then begin
        Bytes.blit cn.buf cn.lo cn.buf 0 (cn.hi - cn.lo);
        cn.hi <- cn.hi - cn.lo;
        cn.lo <- 0
      end;
      if Bytes.length cn.buf - cn.hi < 4096 then begin
        let b = Bytes.create (2 * Bytes.length cn.buf) in
        Bytes.blit cn.buf 0 b 0 cn.hi;
        cn.buf <- b
      end;
      let n = Unix.read cn.fd cn.buf cn.hi (Bytes.length cn.buf - cn.hi) in
      if n = 0 then raise End_of_file;
      cn.hi <- cn.hi + n;
      cn.read_bytes <- cn.read_bytes + n;
      read_frame cn

(* One pipelined batch: encode every request, send, then read one
   response per request. Each request's latency runs from the start of
   the batch to the decode of its response. Returns the batch's wall
   time and the request bytes it sent. *)
let exec_batch cn reqs resps ~sampled ~lat =
  let n = Array.length reqs in
  let root = if sampled then Span.root Span.n_batch else -1 in
  let t_start = now () in
  let e = Span.enter Span.n_encode in
  Array.iteri
    (fun i r -> P.encode_request cn.out ~seq:((cn.seq + i) land 0xffffffff) r)
    reqs;
  Span.leave e;
  let rt = Span.enter Span.n_roundtrip in
  if sampled then Atomic.set Span.remote_parent (Span.id_of rt);
  let bytes = Buffer.to_bytes cn.out in
  Buffer.clear cn.out;
  let len = Bytes.length bytes in
  cn.sent_bytes <- cn.sent_bytes + len;
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write cn.fd bytes !off (len - !off)
  done;
  for i = 0 to n - 1 do
    let seq, body = read_frame cn in
    if seq <> (cn.seq + i) land 0xffffffff then
      raise (P.Bad_frame (Printf.sprintf "response seq %d out of order" seq));
    resps.(i) <- body;
    match lat with Some h -> Hist.add h (now () - t_start) | None -> ()
  done;
  if sampled then Atomic.set Span.remote_parent (-1);
  Span.leave rt;
  let wall = now () - t_start in
  Span.leave root;
  cn.seq <- (cn.seq + n) land 0xffffffff;
  (wall, bytes)

let check_batch m reqs resps =
  let bad = ref 0 in
  Array.iteri
    (fun i req ->
      let ok =
        match (req, resps.(i)) with
        | P.Search { key }, r ->
            r = (match IM.find_opt key !m with Some v -> P.Found v | None -> P.Absent)
        | P.Insert { key; value }, r ->
            if IM.mem key !m then r = P.Duplicate
            else begin
              m := IM.add key value !m;
              r = P.Inserted
            end
        | P.Delete { key }, r ->
            if IM.mem key !m then begin
              m := IM.remove key !m;
              r = P.Deleted
            end
            else r = P.Absent
        | P.Range { lo; hi }, P.Pairs l -> l = model_range !m ~lo ~hi
        | _ -> false
      in
      if not ok then incr bad)
    reqs;
  !bad

let request_of c i =
  let key = c.key.(i) in
  if c.kind.(i) = k_search then P.Search { key }
  else if c.kind.(i) = k_insert then P.Insert { key; value = c.arg.(i) }
  else if c.kind.(i) = k_delete then P.Delete { key }
  else P.Range { lo = key; hi = c.arg.(i) }

(* The server's own decode and encode of a sampled batch, replayed on
   the same bytes and responses. *)
let replay (o : outcome) bytes resps =
  let pos = ref 0 and len = Bytes.length bytes in
  let t0 = now () in
  while !pos < len do
    match P.decode_request bytes ~pos:!pos ~len:(len - !pos) with
    | P.Frame { consumed; _ } -> pos := !pos + consumed
    | P.Need_more -> pos := len
  done;
  let t1 = now () in
  let b = Buffer.create 8192 in
  Array.iteri (fun i r -> P.encode_response b ~seq:i r) resps;
  let t2 = now () in
  o.replay_dec_ns <- o.replay_dec_ns + (t1 - t0);
  o.replay_enc_ns <- o.replay_enc_ns + (t2 - t1);
  o.replay_frames <- o.replay_frames + Array.length resps

type backend = {
  handle : Tree_intf.handle;
  shape : unit -> float * float;
  paged : Paged_int.t option;
  wal_size : unit -> int;
  finish : outcome -> model:int IM.t -> unit;
      (** after the server stopped: checks, then releases everything *)
}

type net = {
  pairs : (int * int) list;
  pick : Splitmix.t -> int;
  mix : mix;
  durable : bool;
  batch_sample : int;  (** traced chunks: one sampled batch per this many *)
  shape_chunk : int;  (** measured chunks before the shape is recorded *)
  build : trace:bool -> on_ctx:(Handle.ctx -> unit) -> (int * int) list -> backend;
}

(* One server lifetime: build and preload, start the server, warm up
   one chunk (all of it counted as set-up), then run measured chunks
   while [continue] says so; finally stop the server and check. *)
let server_run (o : outcome) (w : net) ~model0 ~rng ~trace ~measure ~continue =
  Gc.compact ();
  let server_ctx = ref None in
  let on_ctx ctx = if !server_ctx == None then server_ctx := Some ctx in
  let t0 = now () in
  let b = w.build ~trace ~on_ctx w.pairs in
  let srv =
    Server.start ~workers:1 ~durable_acks:w.durable ~handle:b.handle
      ~listen:[ Unix.ADDR_INET (Unix.inet_addr_loopback, 0) ]
      ()
  in
  let cn = connect (List.hd (Server.addresses srv)) in
  let setup = ref (now () - t0) in
  let model = ref model0 and bad = ref 0 and done_ops = ref 0 in
  let c = make_chunk (chunk_batches * depth) in
  let reqs = Array.make depth (P.Search { key = 0 }) in
  let resps = Array.make depth P.Absent in
  let run_chunk ~traced ~lat =
    gen_chunk c rng ~pick:w.pick w.mix;
    let wall = ref 0 and writes = ref 0 in
    let before = Option.map (fun c -> stats_vec c.Handle.stats) !server_ctx in
    let io0 = if traced then Option.map io_snap b.paged else None in
    let b0 = bracket () in
    for j = 0 to chunk_batches - 1 do
      for i = 0 to depth - 1 do
        reqs.(i) <- request_of c ((j * depth) + i);
        if c.kind.((j * depth) + i) = k_insert || c.kind.((j * depth) + i) = k_delete
        then incr writes
      done;
      let sampled = traced && j mod w.batch_sample = 0 in
      let dt, bytes = exec_batch cn reqs resps ~sampled ~lat in
      wall := !wall + dt;
      if sampled then begin
        o.samp_lat <- o.samp_lat + dt;
        o.samp <- o.samp + 1;
        replay o bytes resps
      end;
      bad := !bad + check_batch model reqs resps;
      done_ops := !done_ops + depth
    done;
    (if traced then
       match (before, !server_ctx) with
       | Some bv, Some ctx -> add_stats o bv (stats_vec ctx.Handle.stats)
       | _ -> ());
    (match (io0, b.paged) with Some snap, Some s -> add_io o snap s | _ -> ());
    (!wall, steal_in b0 ~wall:!wall, !writes)
  in
  let wd, _, _ = run_chunk ~traced:false ~lat:None in
  setup := !setup + wd;
  o.setup <- (float_of_int !setup *. 1e-9) :: o.setup;
  if measure then begin
    let wal0 = b.wal_size () in
    let io0 = cn.read_bytes + cn.sent_bytes and writes = ref 0 in
    let rec loop k =
      let traced = trace && k mod 2 = 1 in
      let wall, steal, wr =
        run_chunk ~traced ~lat:(if traced then None else Some o.lat)
      in
      account o ~traced ~wall ~steal ~ops:(chunk_batches * depth);
      writes := !writes + wr;
      let go_on = continue k in
      if (k + 1) mod net_window = 0 || not go_on then close_window o;
      (* no request is in flight between chunks: the tree is quiescent *)
      if k + 1 = w.shape_chunk then record_shape o b.shape;
      if go_on then loop (k + 1) else k + 1
    in
    if loop 0 < w.shape_chunk then record_shape o b.shape;
    o.max_pipeline <- max o.max_pipeline (Server.stats srv).Stats.max_pipeline;
    o.net_bytes <- o.net_bytes + (cn.read_bytes + cn.sent_bytes - io0);
    o.wal_bytes <- o.wal_bytes + (b.wal_size () - wal0);
    o.writes <- o.writes + !writes
  end;
  (try Unix.close cn.fd with Unix.Unix_error _ -> ());
  Server.stop srv;
  o.attempted <- o.attempted + !done_ops;
  o.failed <- o.failed + !bad;
  o.height <- b.handle.height ();
  b.finish o ~model:!model

let run_net_mem o (w : net) ~setup_reps ~rng ~seconds ~trace =
  let model0 = model_of w.pairs in
  let warm = Splitmix.split rng in
  let limit = int_of_float (seconds *. 1e9) in
  for rep = 1 to setup_reps do
    (* every set-up replays the same warm-up; only the last is measured *)
    let last = rep = setup_reps in
    let rng = if last then warm else Splitmix.copy warm in
    server_run o w ~model0 ~rng ~trace ~measure:last ~continue:(fun _ ->
        o.time_ns + o.t_time_ns < limit)
  done

(* Rounds of a fixed number of chunks, each on a fresh store, so the
   log's growth per round is the same whatever the run's speed. *)
let run_net_rounds o (w : net) ~rng ~seconds ~trace =
  let model0 = model_of w.pairs in
  let limit = int_of_float (seconds *. 1e9) in
  let rec rounds () =
    server_run o w ~model0 ~rng ~trace ~measure:true ~continue:(fun k ->
        k + 1 < w.shape_chunk);
    if o.time_ns + o.t_time_ns < limit then rounds ()
  in
  rounds ()

(* ------------------------------------------------------------------ *)
(* The trees                                                           *)
(* ------------------------------------------------------------------ *)

let bulk_load (h : Tree_intf.handle) pairs =
  if not ((Option.get h.bulk_add) pairs) then failwith "bulk load into a non-empty tree"

let check_mem raw (h : Tree_intf.handle) o ~model =
  final_check o ~label:h.name ~report:(Validate_mem.check raw)
    ~leaks:(List.length (Validate_mem.leak_check raw))
    ~cardinal:(h.cardinal ())
    ~scan:(scan_of (Sagiv_mem.fold_all raw (Handle.ctx ~slot:0)))
    ~model

(* the in-memory store has no file: its size is the page-format size of
   the live nodes *)
let shape_mem raw () =
  let r = Validate_mem.check raw in
  (pages_per_kkey r, float_of_int r.encoded_bytes)

let check_disk raw o ~label ~model =
  let report = Validate_disk.check raw in
  final_check o ~label ~report
    ~leaks:(List.length (Validate_disk.leak_check raw))
    ~cardinal:(Sagiv_disk.cardinal raw)
    ~scan:(scan_of (Sagiv_disk.fold_all raw (Handle.ctx ~slot:0)))
    ~model

let disk_handle raw =
  Tree_intf.of_ops
    ~commit:(fun () -> Sagiv_disk.commit raw)
    ~range:(Sagiv_disk.range raw)
    ~bulk_add:(fun ?fill ps -> Sagiv_disk.bulk_add ?fill raw ps)
    ~name:"sagiv-disk"
    (module Sagiv_disk)
    raw

let mem_tree pairs =
  let raw, h = Tree_intf.sagiv_raw ~order () in
  bulk_load h pairs;
  {
    plain = h;
    traced = Timed.handle h;
    check = check_mem raw h;
    shape = shape_mem raw;
    paged = None;
  }

let paged_tree ~cache_pages pairs =
  let store = Paged_int.create_memory ~cache_pages () in
  let raw = Sagiv_disk.create ~order ~store () in
  let h = disk_handle raw in
  bulk_load h pairs;
  {
    plain = h;
    traced = Timed.handle (Timed.paged_handle raw);
    check = (fun o ~model -> check_disk raw o ~label:"tree-paged" ~model);
    shape =
      (fun () ->
        ( pages_per_kkey (Validate_disk.check raw),
          float_of_int (Paged_int.live_count store * Paged_int.page_size store) ));
    paged = Some store;
  }

let mem_backend ~trace ~on_ctx pairs =
  let raw, h = Tree_intf.sagiv_raw ~order () in
  bulk_load h pairs;
  {
    handle = (if trace then Timed.handle ~on_ctx h else h);
    shape = shape_mem raw;
    paged = None;
    wal_size = (fun () -> 0);
    finish = check_mem raw h;
  }

let file_size p = (Unix.stat p).Unix.st_size

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 (Bytes.length buf) in
    if n > 0 then begin
      output oc buf 0 n;
      go ()
    end
  in
  go ();
  close_in ic;
  close_out oc

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A file-backed store with a log in a directory of its own, preloaded
   and checkpointed, so the measured writes reach the data only through
   the log. [finish] copies both files as a crash would leave them,
   closes the store, and checks the copy after log replay. *)
let wal_backend ~trace ~on_ctx pairs =
  let dir = Filename.concat out_dir (Printf.sprintf "netwal-%d" (Unix.getpid ())) in
  mkdir_p dir;
  let f name = Filename.concat dir name in
  let data = f "data.pages" and wal = f "data.wal" in
  let store = Paged_int.create_file ~wal_path:wal data in
  let raw = Sagiv_disk.create ~order ~store () in
  let h = disk_handle raw in
  bulk_load h pairs;
  Sagiv_disk.flush raw;
  let finish o ~model =
    if trace then o.codec <- time_codec store;
    copy_file data (f "crash.pages");
    copy_file wal (f "crash.wal");
    Paged_int.close store;
    let reopened = Paged_int.open_file ~wal_path:(f "crash.wal") (f "crash.pages") in
    check_disk (Sagiv_disk.open_existing reopened) o ~label:"net-wal after replay" ~model;
    Paged_int.close reopened;
    List.iter Sys.remove [ data; wal; f "crash.pages"; f "crash.wal" ];
    Unix.rmdir dir
  in
  {
    handle = (if trace then Timed.handle ~on_ctx (Timed.paged_handle raw) else h);
    shape =
      (fun () ->
        ( pages_per_kkey (Validate_disk.check raw),
          float_of_int (file_size data + file_size wal) ));
    paged = Some store;
    wal_size = (fun () -> file_size wal);
    finish;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let median l =
  match List.sort compare l with
  | [] -> 0.0
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.0

let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | text ->
      let kb = ref 0 in
      List.iter
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              kb := int_of_string (List.hd (String.split_on_char ' ' (String.trim v)))
          | _ -> ())
        (String.split_on_char '\n' text);
      float_of_int !kb /. 1024.0
  | exception Sys_error _ ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * 8) /. 1048576.0

let per a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let fper a b = if b = 0 then 0.0 else a /. float_of_int b
let rate ops ns = if ns <= 0 then 0.0 else float_of_int ops /. (float_of_int ns *. 1e-9)

(* timed execution less host steal; at most half of it is taken out *)
let ran_ns ~time ~steal = time - min steal (time / 2)

let end_to_end (o : outcome) =
  [
    ("ops_per_s", rate o.ops (ran_ns ~time:o.time_ns ~steal:o.steal_ns), "1/s");
    ("setup_s", median o.setup, "s");
    ("peak_rss_mb", peak_rss_mb (), "MB");
    ("pages_per_kkey", median o.ppk, "count");
    ("store_mb", median o.store /. 1048576.0, "MB");
  ]

let per_layer (o : outcome) ~depth_of_root =
  let s = Span.summarize () in
  let q nm p = Hist.quantile s.durs.(nm) p in
  let self nm = s.self_ns.(nm) in
  let ops = o.t_ops in
  let io = o.io in
  let roots = o.samp in
  let sagiv_names = [ Span.n_search; Span.n_insert; Span.n_delete; Span.n_range ] in
  let store_names = [ Span.n_get; Span.n_put; Span.n_lock ] in
  let sum f l = List.fold_left (fun a nm -> a +. f nm) 0.0 l in
  let replay = float_of_int (o.replay_enc_ns + o.replay_dec_ns) in
  let tree = sum self sagiv_names
  and page_store = sum self store_names
  and wal = self Span.n_commit
  and protocol = self Span.n_encode +. self Span.n_decode +. replay
  and socket = self Span.n_roundtrip -. replay in
  let lat = per o.samp_lat roots in
  let attributed = fper (tree +. page_store +. wal +. protocol +. socket) roots in
  let unattributed = lat -. attributed in
  let unattributed_pct = 100.0 *. unattributed /. Float.max 1.0 lat in
  let ok = Float.abs unattributed <= split_tolerance *. lat in
  let net = depth_of_root > 1 in
  let sampled_frames = s.calls.(Span.n_encode) * depth_of_root in
  let untraced = rate o.ops (ran_ns ~time:o.time_ns ~steal:o.steal_ns)
  and traced = rate o.t_ops (ran_ns ~time:o.t_time_ns ~steal:o.t_steal_ns) in
  let split =
    [
      ("split.latency_ns", lat, "ns");
      ("split.tree_ns", fper tree roots, "ns");
      ("split.page_store_ns", fper page_store roots, "ns");
      ("split.wal_ns", fper wal roots, "ns");
      ("split.protocol_ns", fper protocol roots, "ns");
      ("split.socket_drain_ns", fper socket roots, "ns");
      ("split.unattributed_ns", unattributed, "ns");
    ]
  in
  Printf.eprintf "layer split per sampled %s (%d sampled, tolerance %.0f%%):\n"
    (if net then "batch" else "operation")
    roots (100.0 *. split_tolerance);
  List.iter (fun (n, v, _) -> Printf.eprintf "  %-24s %12.1f ns\n" n v) split;
  Printf.eprintf "  self-check: %s (unattributed %.1f%% of measured latency)\n%!"
    (if ok then "OK" else "FAILED")
    unattributed_pct;
  [
    (* the tail is not held steady enough across runs to gate on: the
       fsync tail of net-wal moves with the host's disk load *)
    ("latency.p50_us", median o.p50s /. 1e3, "us");
    ("latency.p99_us", median o.p99s /. 1e3, "us");
    ("sagiv.search_ns_p50", q Span.n_search 0.50, "ns");
    ("sagiv.search_ns_p99", q Span.n_search 0.99, "ns");
    ("sagiv.insert_ns_p50", q Span.n_insert 0.50, "ns");
    ("sagiv.insert_ns_p99", q Span.n_insert 0.99, "ns");
    ("sagiv.delete_ns_p50", q Span.n_delete 0.50, "ns");
    ("sagiv.delete_ns_p99", q Span.n_delete 0.99, "ns");
    ("sagiv.range_ns_p50", q Span.n_range 0.50, "ns");
    ("sagiv.range_ns_p99", q Span.n_range 0.99, "ns");
    ("sagiv.gets_per_op", per o.sagiv.(0) ops, "count");
    ("sagiv.locks_per_op", per o.sagiv.(1) ops, "count");
    ("sagiv.link_follows_per_kop", 1000.0 *. per o.sagiv.(2) ops, "count");
    ("sagiv.restarts_per_kop", 1000.0 *. per o.sagiv.(3) ops, "count");
    ("sagiv.splits_per_kop", 1000.0 *. per o.sagiv.(4) ops, "count");
    ("sagiv.height", float_of_int o.height, "count");
    ("paged_store.get_ns", Hist.mean s.durs.(Span.n_get), "ns");
    ("paged_store.put_ns", Hist.mean s.durs.(Span.n_put), "ns");
    ("paged_store.lock_ns", Hist.mean s.durs.(Span.n_lock), "ns");
    ("paged_store.faults_per_op", per io.Stats.faults ops, "count");
    ("paged_store.evictions_per_op", per o.evictions ops, "count");
    ( "paged_store.writebacks_per_op",
      per (io.inline_writebacks + io.queued_writebacks) ops,
      "count" );
    ("paged_store.fault_stall_ms", io.fault_stall_s *. 1e3, "ms");
    ("page_codec.encode_ns", fst o.codec, "ns");
    ("page_codec.decode_ns", snd o.codec, "ns");
    ("wal.commit_us_p50", q Span.n_commit 0.50 /. 1e3, "us");
    ("wal.commit_us_p99", q Span.n_commit 0.99 /. 1e3, "us");
    ("wal.records_per_commit", per io.wal_records io.commit_groups, "count");
    ("wal.bytes_per_write", per o.wal_bytes o.writes, "B");
    ("wal.fsyncs_per_kop", 1000.0 *. per io.wal_fsyncs ops, "count");
    ( "protocol.encode_ns_per_frame",
      fper (self Span.n_encode +. float_of_int o.replay_enc_ns)
        (sampled_frames + o.replay_frames),
      "ns" );
    ( "protocol.decode_ns_per_frame",
      fper (self Span.n_decode +. float_of_int o.replay_dec_ns)
        (sampled_frames + o.replay_frames),
      "ns" );
    ("protocol.bytes_per_op", per o.net_bytes (o.ops + o.t_ops), "B");
    ( "server.tree_us_per_batch",
      (if net then
         fper (sum (fun nm -> float_of_int s.durs.(nm).Hist.sum) sagiv_names) roots
       else 0.0)
      /. 1e3,
      "us" );
    ("server.self_us_per_batch", fper (self Span.n_roundtrip) roots /. 1e3, "us");
    ("server.max_frames_per_batch", float_of_int o.max_pipeline, "count");
    ("trace.ops_per_s_untraced", untraced, "1/s");
    ("trace.ops_per_s_traced", traced, "1/s");
    ("trace.overhead_pct", 100.0 *. (1.0 -. (traced /. untraced)), "%");
    ( "host.steal_pct",
      100.0 *. per (o.steal_ns + o.t_steal_ns) (o.time_ns + o.t_time_ns),
      "%" );
    ("trace.spans", float_of_int s.spans, "count");
    ("trace.spans_dropped", float_of_int s.dropped, "count");
  ]
  @ split
  @ [
      ("split.unattributed_pct", unattributed_pct, "%");
      ("split.check_ok", (if ok then 1.0 else 0.0), "count");
    ]

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result o metrics =
  let body =
    String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" n
             (json_num v) u)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (o.failed = 0) o.attempted o.failed body

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let workloads = [ "tree-mem"; "tree-paged"; "net-mem"; "net-wal" ]

let run workload ~seed ~seconds ~trace =
  let o = outcome () in
  let widx =
    match List.find_index (String.equal workload) workloads with
    | Some i -> i
    | None -> raise (Arg.Bad ("unknown workload " ^ workload))
  in
  let rng = Splitmix.create ((seed * 1_000_003) + widx) in
  let uniform keys r = Splitmix.int r keys in
  (match workload with
  | "tree-mem" ->
      let keys = 2_000_000 in
      run_inproc o
        {
          workers = 1;
          pairs = preload rng ~keys;
          owner = (fun _ -> 0);
          picks = [| uniform keys |];
          mix = { search = 90; insert = 5; delete = 5; span = 0 };
          chunk_ops = 100_000;
          warm_chunks = 2;
          sample = 16;
          shape_chunk = 16;
          setup_reps = 3;
          build = mem_tree;
        }
        ~rng ~seconds ~trace
  | "tree-paged" ->
      (* each worker owns the keys of one residue class mod 2 and draws
         ranks from a Zipf law, so hot keys of both workers share leaves *)
      let per_class = 200_000 in
      let z = Zipf.create ~n:per_class ~exponent:0.99 in
      run_inproc o
        {
          workers = 2;
          pairs = preload rng ~keys:(2 * per_class);
          owner = (fun k -> k land 1);
          picks = Array.init 2 (fun d r -> (2 * (Zipf.sample z r - 1)) + d);
          mix = { search = 30; insert = 35; delete = 35; span = 0 };
          chunk_ops = 10_000;
          warm_chunks = 4;
          sample = 32;
          shape_chunk = 32;
          setup_reps = 5;
          build = paged_tree ~cache_pages:1024;
        }
        ~rng ~seconds ~trace
  | "net-mem" ->
      let keys = 200_000 in
      run_net_mem o
        {
          pairs = preload rng ~keys;
          pick = uniform keys;
          mix = { search = 88; insert = 5; delete = 5; span = 32 };
          durable = false;
          batch_sample = 4;
          shape_chunk = 256;
          build = mem_backend;
        }
        ~setup_reps:5 ~rng ~seconds ~trace
  | _ ->
      let keys = 40_000 in
      run_net_rounds o
        {
          pairs = preload rng ~keys;
          pick = uniform keys;
          mix = { search = 40; insert = 30; delete = 30; span = 0 };
          durable = true;
          batch_sample = 2;
          shape_chunk = 8;
          build = wal_backend;
        }
        ~rng ~seconds ~trace);
  let net = widx >= 2 in
  Printf.eprintf
    "%s seed=%d: %d ops measured untraced (%d latency samples in %d \
     windows), %d traced; %d set-ups; attempted %d, failed %d\n%!"
    workload seed o.ops o.samples (List.length o.p99s) o.t_ops (List.length o.setup)
    o.attempted o.failed;
  Printf.eprintf
    "untraced: %.0f ops/s by the wall clock, host steal %.1f%% of it\n%!"
    (rate o.ops o.time_ns)
    (100.0 *. per o.steal_ns o.time_ns);
  if trace then begin
    let metrics = per_layer o ~depth_of_root:(if net then depth else 1) in
    mkdir_p out_dir;
    let path =
      Filename.concat out_dir (Printf.sprintf "spans-%s-seed%d.tsv" workload seed)
    in
    Span.write_tsv path;
    Printf.eprintf "spans written to %s\n%!" path;
    print_result o metrics
  end
  else print_result o (end_to_end o)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 in
  let usage =
    "main.exe --workload W --seed N --seconds S --trace 0|1 [--corrupt-model]\n\
     workloads: " ^ String.concat ", " workloads
  in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--corrupt-model", Arg.Set corrupt_model, " change one model entry");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline usage;
    exit 2
  end;
  run !workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
