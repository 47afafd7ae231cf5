// Package serve turns the Active Learning core into a long-running,
// concurrent campaign service: clients create campaigns over HTTP,
// submit observed measurements, and read back next-experiment
// suggestions, batched GP predictions, and per-iteration progress —
// the paper's §VI online setting operated as a network service instead
// of a batch CLI.
//
// # Architecture
//
// A Manager owns a set of Campaigns. Each campaign runs ONE goroutine,
// its actor, which owns an al.Session (the ask/tell AL loop) and all
// other mutable campaign state. There is no per-campaign mutex:
// handlers send closures over the campaign mailbox and the actor runs
// them one at a time. A fitted model is immutable, so model pointers
// cross goroutines freely.
//
// Whenever the session owes a step, the actor runs Session.Next itself.
// A "client" campaign publishes the point as its pending suggestion; an
// observe journals the measurement and Tells the session, and the actor
// yields to the acked handler before it steps again. A suggest arriving
// mid-step waits in the mailbox. A "dataset" campaign
// answers each point from its dataset, one step per actor turn. As
// al.RunOnline drives the same Session, an HTTP-driven campaign's trace
// equals the direct call's — the service's core invariant, enforced by
// TestClientCampaignTraceMatchesRunOnline and the stress and chaos
// suites.
//
// # Durability
//
// Campaign persistence is event-sourced: an append-only JSONL journal
// (one file per campaign — a header line, one line per accepted
// observation, session snapshot lines, and a terminal line when the
// campaign ends) stores the campaign spec plus the ordered
// observations. Each record costs one write plus one fsync, and every
// observation is journaled BEFORE it is acknowledged — for client
// campaigns a journal failure rejects the observation with ErrJournal
// (fail closed) rather than ack data that would not survive a crash. A
// crash can tear at most the final, unacknowledged line; the loader
// drops a torn tail and resumes from the last complete record.
//
// A snapshot line (Snapshot) carries the session's al.Checkpoint after
// its first n observations, pinned to the model version and
// fingerprint current then. The actor writes one every 32 observations
// at an iteration boundary, outside any observe's ack path, and one with
// the terminal line. Resume restores the newest snapshot that validates
// (al.RestoreSession: one fit at the recorded hyperparameters) and
// folds only the later observations through the session, one Tell per
// entry; without a valid snapshot it folds the whole journal through a
// fresh session. Either way the session deterministically replays every
// fit, rejection, retry and RNG draw, so the rebuilt state — records,
// model, and the subsequent suggestion stream — is byte-identical to
// the uninterrupted run. Three checks guard the invariant, and each
// fails the campaign instead of serving silently diverged suggestions:
// each point the replay asks for must equal the entry's journaled x bit
// for bit, the journal records the model fingerprint at its model
// version, which a replay reaching that version must reproduce, and a
// restored snapshot's model must have the fingerprint the snapshot
// pins.
//
// # Storage
//
// Persistence sits behind the Store interface: DirStore (one fsynced
// file per campaign under a checkpoint directory) for production,
// MemStore for tests and for cluster nodes whose durability comes from
// replication. Raw journal bytes are the unit of exchange — Export and
// Import move a campaign between stores byte-for-byte, and the
// canonical line encoders (EncodeJournalHeader/Obs/Snapshot/Final) guarantee
// that the same campaign produces identical bytes in every store. That
// byte identity is what lets internal/ring ship journals between
// replicas and replay them anywhere with the same fingerprinted trace;
// TestStoreReplayEquivalence pins it.
//
// # Shutdown contract
//
// Manager.Shutdown is idempotent and safe to call concurrently — with
// itself, with Delete/Release, and with in-flight suggest, observe, and
// predict traffic. Exactly one caller performs the drain: it marks the
// manager closed (new work is rejected with ErrClosed) and stops every
// campaign under its context; each actor finishes the step it is in.
// Every other call, concurrent or later, waits for that drain and
// returns its outcome; a caller whose own context dies first gets that
// context error, but once the drain has finished even an
// already-expired context gets the real result. A suggest or observe
// racing the shutdown either completes fully — journaled, replicated,
// acknowledged — or is rejected with ErrClosed; it is never
// half-applied. TestManagerShutdownConcurrentWithTraffic pins the
// contract under the race detector.
//
// # Resilience
//
// The HTTP layer wraps the campaign core in production defenses
// (internal/resilience, DESIGN.md §10): per-route context deadlines
// that the actor honors, a bounded admission gate that sheds
// excess load with 429 + Retry-After and flips /healthz to "degraded"
// past its high watermark, circuit breakers around the scoring pool
// and journal writes, and idempotent observes — a client that sends an
// Idempotency-Key header may blindly retry an ambiguous ack, because a
// duplicate key re-acks the original seq instead of re-feeding the
// model. Suggestion seq numbering continues across crash/resume, so
// seq-derived keys stay collision-free for the campaign's whole life.
//
// # Scoring and caching
//
// Batched /predict inference reuses the loop's chunked scorer
// (al.ScoreBatch) under a Manager-wide semaphore that bounds the number
// of concurrent scoring operations, and fills a server-wide LRU
// prediction cache keyed on (campaign, model version, input point).
// A model-version bump simply changes the key — stale entries are never
// served and age out of the LRU; no explicit invalidation pass exists
// or is needed.
//
// See DESIGN.md §9 for the campaign lifecycle state machine and
// OBSERVABILITY.md for the serve.* metric and span catalog.
package serve
