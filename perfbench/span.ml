(* Clock, latency histogram and in-memory span recorder of the benchmark.

   Spans are recorded only under a sampled root: a domain records a span
   when its own span stack is non-empty, or when it has none and
   [remote_parent] names a span of another domain (the network client
   publishes its round-trip span there, so the server worker's tree and
   commit spans become that span's children). Each domain appends to its
   own preallocated buffer; buffers are read only after the run, when
   every recording domain is quiescent. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---------- log-linear histogram of non-negative ints (ns) ---------- *)

module Hist = struct
  (* 64 sub-buckets per power of two: values below 64 are exact, above
     that a bucket spans 1/64 of its power of two. Percentiles
     interpolate linearly by rank inside the bucket; Repro_util.Histogram
     reports bucket bounds instead, which repeat exactly from run to run
     and hide small shifts. *)
  let sub = 64
  let buckets = 64 * sub

  type t = { counts : int array; mutable n : int; mutable sum : int }

  let create () = { counts = Array.make buckets 0; n = 0; sum = 0 }

  let msb v =
    let r = ref 0 and v = ref v in
    if !v lsr 32 <> 0 then (v := !v lsr 32; r := 32);
    if !v lsr 16 <> 0 then (v := !v lsr 16; r := !r + 16);
    if !v lsr 8 <> 0 then (v := !v lsr 8; r := !r + 8);
    if !v lsr 4 <> 0 then (v := !v lsr 4; r := !r + 4);
    if !v lsr 2 <> 0 then (v := !v lsr 2; r := !r + 2);
    if !v lsr 1 <> 0 then r := !r + 1;
    !r

  let bucket v =
    if v < sub then max v 0
    else
      let shift = msb v - 6 in
      ((shift + 1) * sub) + ((v lsr shift) - sub)

  (* [lo, hi) of a bucket *)
  let bounds b =
    if b < sub then (float_of_int b, float_of_int (b + 1))
    else
      let shift = (b / sub) - 1 and mant = (b mod sub) + sub in
      (float_of_int (mant lsl shift), float_of_int ((mant + 1) lsl shift))

  let add t v =
    let b = bucket v in
    t.counts.(b) <- t.counts.(b) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum + v

  let merge ~into t =
    Array.iteri (fun i c -> into.counts.(i) <- into.counts.(i) + c) t.counts;
    into.n <- into.n + t.n;
    into.sum <- into.sum + t.sum

  let clear t =
    Array.fill t.counts 0 buckets 0;
    t.n <- 0;
    t.sum <- 0

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else float_of_int t.sum /. float_of_int t.n

  (* [q] in [0, 1] *)
  let quantile t q =
    if t.n = 0 then 0.0
    else
      let rank = q *. float_of_int t.n in
      let rec go b cum =
        let c = t.counts.(b) in
        if b = buckets - 1 || float_of_int (cum + c) >= rank && c > 0 then
          let lo, hi = bounds b in
          let frac =
            if c = 0 then 0.0 else (rank -. float_of_int cum) /. float_of_int c
          in
          lo +. ((hi -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
        else go (b + 1) (cum + c)
      in
      go 0 0
end

(* ---------- span names ---------- *)

let names = [| "op"; "batch"; "sagiv.search"; "sagiv.insert"; "sagiv.delete";
               "sagiv.range"; "paged_store.get"; "paged_store.put";
               "paged_store.lock"; "wal.commit"; "protocol.encode";
               "protocol.decode"; "net.roundtrip" |]

let n_op = 0
let n_batch = 1
let n_search = 2
let n_insert = 3
let n_delete = 4
let n_range = 5
let n_get = 6
let n_put = 7
let n_lock = 8
let n_commit = 9
let n_encode = 10
let n_decode = 11
let n_roundtrip = 12
let name_count = Array.length names

(* ---------- recorder ---------- *)

let capacity = 400_000

type buf = {
  ids : int array;
  parents : int array;
  name : int array;
  t0 : int array;
  t1 : int array;
  stack : int array;
  mutable depth : int;
  mutable n : int;
  mutable dropped : int;
}

let next_id = Atomic.make 0
let remote_parent = Atomic.make (-1)
let bufs = ref []
let bufs_mu = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          ids = Array.make capacity 0;
          parents = Array.make capacity 0;
          name = Array.make capacity 0;
          t0 = Array.make capacity 0;
          t1 = Array.make capacity 0;
          stack = Array.make 64 0;
          depth = 0;
          n = 0;
          dropped = 0;
        }
      in
      Mutex.protect bufs_mu (fun () -> bufs := b :: !bufs);
      b)

let record b ~parent nm =
  let i = b.n in
  if i >= capacity || b.depth >= Array.length b.stack then begin
    b.dropped <- b.dropped + 1;
    -1
  end
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    b.ids.(i) <- id;
    b.parents.(i) <- parent;
    b.name.(i) <- nm;
    b.t1.(i) <- -1;
    b.stack.(b.depth) <- id;
    b.depth <- b.depth + 1;
    b.n <- i + 1;
    b.t0.(i) <- now ();
    i
  end

(* Open a span as a child of the current one; [-1] (nothing recorded)
   outside a sampled root. *)
let enter nm =
  let b = Domain.DLS.get key in
  if b.depth > 0 then record b ~parent:b.stack.(b.depth - 1) nm
  else
    let rp = Atomic.get remote_parent in
    if rp >= 0 then record b ~parent:rp nm else -1

(* Open a sampled root span. *)
let root nm = record (Domain.DLS.get key) ~parent:(-1) nm

let leave tok =
  if tok >= 0 then begin
    let b = Domain.DLS.get key in
    b.t1.(tok) <- now ();
    b.depth <- b.depth - 1
  end

let id_of tok = if tok < 0 then -1 else (Domain.DLS.get key).ids.(tok)

(* ---------- aggregation ---------- *)

type summary = {
  spans : int;
  dropped : int;
  self_ns : float array;  (** per name: duration minus direct children *)
  calls : int array;  (** per name: completed spans *)
  durs : Hist.t array;  (** per name: span durations *)
}

let summarize () =
  let all = Mutex.protect bufs_mu (fun () -> !bufs) in
  let total = List.fold_left (fun a b -> a + b.n) 0 all in
  let child = Hashtbl.create (max 16 total) in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.t1.(i) >= 0 && b.parents.(i) >= 0 then
          let c = try Hashtbl.find child b.parents.(i) with Not_found -> 0 in
          Hashtbl.replace child b.parents.(i) (c + (b.t1.(i) - b.t0.(i)))
      done)
    all;
  let self_ns = Array.make name_count 0.0 in
  let calls = Array.make name_count 0 in
  let durs = Array.init name_count (fun _ -> Hist.create ()) in
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        if b.t1.(i) >= 0 then begin
          let nm = b.name.(i) and d = b.t1.(i) - b.t0.(i) in
          let c = try Hashtbl.find child b.ids.(i) with Not_found -> 0 in
          self_ns.(nm) <- self_ns.(nm) +. float_of_int (d - c);
          calls.(nm) <- calls.(nm) + 1;
          Hist.add durs.(nm) d
        end
      done)
    all;
  {
    spans = total;
    dropped = List.fold_left (fun a (b : buf) -> a + b.dropped) 0 all;
    self_ns;
    calls;
    durs;
  }

(* One line per span: id, parent, name, start ns, end ns. *)
let write_tsv path =
  let all = Mutex.protect bufs_mu (fun () -> !bufs) in
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun b ->
      for i = 0 to b.n - 1 do
        Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" b.ids.(i) b.parents.(i)
          names.(b.name.(i)) b.t0.(i) b.t1.(i)
      done)
    all;
  close_out oc
