(* Observability: metrics registry, attribution sites, trace ring, JSON.

   This library is the measurement layer under the whole reproduction.  The
   paper's key quantitative claims (Fig 4c/4d, Table 4) are *per-operation*
   flush/fence/LLC counts per index; the registry here is what lets the
   substrate attribute those events to the index and structural site that
   caused them, keep counting under multi-domain load (per-domain slots,
   see {!Slot}), and export machine-readable reports.

   - {!Slot}: the one per-domain slot scheme — a dense index in
     [0, max_domains) per live domain, recycled when the domain exits —
     under every per-domain table here and in [pmem]/[psan].
   - {!Counter}, {!Gauge}, {!Hist}: named metrics, enumerable by exporters.
   - {!Site}: index × structural-location attribution for flushes, fences
     and crash points ("P-ART/n4/add"), plus crash-point coverage.
   - {!Domring}: one ring per slot, the storage under both the event
     trace and the span rings.
   - {!Trace}: per-domain fixed-capacity event ring, dumpable on failure.
   - {!Span}: request-lifecycle phase timing for the served path
     (submit/enqueue/dequeue/apply/fence/ack boundaries).
   - {!Traceview}: Chrome/Perfetto trace-event JSON export of spans, trace
     events and site attribution.
   - {!Json}: dependency-free JSON emit/parse for the bench exporter.

   [pmem] layers on top: the legacy [Pmem.Stats] block is now a façade over
   counters registered here. *)

module Slot = Slot
module Counter = Counter
module Gauge = Gauge
module Hist = Hist
module Site = Site
module Domring = Domring
module Trace = Trace
module Span = Span
module Traceview = Traceview
module Json = Json
module Diag = Diag

(** Find-or-create shorthands. *)
let counter = Counter.v

let hist = Hist.v

(** Reset every registered counter and histogram and clear the trace ring —
    the between-experiments clean slate.  Site and metric *registration* is
    permanent; only the recorded values are cleared. *)
let reset_all () =
  Counter.reset_all ();
  Hist.reset_all ();
  Trace.clear ();
  Span.clear ();
  Diag.clear ()
