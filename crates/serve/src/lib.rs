//! # wodex-serve — the std-only multi-session HTTP serving layer
//!
//! The survey frames WoD exploration as *server-mediated*: browsers and
//! exploratory systems (§3.1) issue many small interactive requests
//! against big datasets, and §2 demands incremental/progressive delivery
//! — first results before the query finishes. This crate turns the
//! workspace's library into that system: an HTTP/1.1 server built only
//! on `std::net`, consuming the two production ingredients the earlier
//! layers provide — the `wodex-exec` bounded channel as its admission
//! queue and worker feed, and `wodex-resilience` budgets for per-request
//! cost control.
//!
//! * [`http`] — request parsing, responses, chunked streaming with
//!   trailers.
//! * [`sessions`] — token-keyed [`ExplorationSession`]s sharing one
//!   graph and its indexes, with LRU eviction and TTL expiry.
//! * [`server`] — the accept loop, bounded worker pool, and the
//!   two-gate admission control (queue depth + queue deadline), both of
//!   which shed with `503` + `Retry-After` instead of queueing without
//!   bound.
//! * [`handlers`] (internal) — the endpoint surface: `POST /sparql`
//!   (budgeted, chunk-streamed SPARQL 1.1 JSON), `GET /explore/*`
//!   (overview / filter / zoom / search / details / undo over a
//!   session), `GET /viz/*` (charts, recommendations, streamed
//!   histograms), `GET /stats`, `GET /healthz`, and
//!   `POST /admin/shutdown`.
//!
//! Degraded answers (budget tripped) are first-class: the partial body
//! is well-formed and the verdict rides HTTP trailers/headers
//! (`X-Wodex-Degraded: <reason>;coverage=<f>`), never an error status.
//!
//! [`ExplorationSession`]: wodex_explore::ExplorationSession

mod handlers;
pub mod http;
pub mod server;
pub mod sessions;

pub use server::{AppState, Counters, RunningServer, ServeConfig, Server};
pub use sessions::{SessionManager, SessionStats};
