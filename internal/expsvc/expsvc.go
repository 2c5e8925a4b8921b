// Package expsvc is the experiment service: a long-running daemon
// (cmd/pifexpd) that accepts sweep specs over a versioned HTTP JSON API,
// queues them, executes each through the existing runner.Backend seam
// (a local pool or a remote coordinator), and records every run in an
// embedded persistent run database layered on report.Store — the shared
// results corpus the ROADMAP's "many users, one corpus" north star needs.
//
// The database is one index file per run directory (exprun.json) next to
// the report store's own files. The record carries the submitted spec,
// the run's state machine (queued → running → done/failed), timings, and
// counts; it is written atomically (report.AtomicWriteFile) on every
// transition. The artifacts themselves are persisted by report.Save,
// whose run.json-written-last contract means a run directory is either
// complete or rejected by report.Load — a crashed service never leaves a
// loadable half-run, and on restart any record still queued or running
// is requeued (or marked failed once its attempt budget is spent).
//
// See DESIGN.md §14 for the API table, state machine, and DB layout.
package expsvc

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/report"
)

// WireVersion stamps every request and response of the service API; a
// client and server disagreeing on it refuse each other rather than
// misinterpreting payloads. Bump on any non-additive wire change.
const WireVersion = 1

// RecordSchemaVersion stamps persisted run records (exprun.json); a
// service opening a database written under a different version rejects
// the record rather than guessing at its fields.
const RecordSchemaVersion = 1

// recordFile is the run-database index file inside a run directory. It
// is deliberately NOT report's run.json: a queued or running record must
// never make report.Load treat the directory as a complete run.
const recordFile = "exprun.json"

// State is one run's position in the service state machine.
type State string

const (
	// StateQueued: accepted and persisted, waiting for the executor.
	StateQueued State = "queued"
	// StateRunning: the executor is simulating the sweep.
	StateRunning State = "running"
	// StateDone: artifacts and per-job results are persisted; the run
	// directory passes report.Load.
	StateDone State = "done"
	// StateFailed: the run errored (or exhausted its restart attempts);
	// Error holds the reason.
	StateFailed State = "failed"
	// StateStored marks a run directory that passes report.Load but has
	// no service record — a corpus run written by other tools (e.g.
	// `experiments -out` pointed at the same root). Listings include
	// them; the service never executes or rewrites them.
	StateStored State = "stored"
)

// Terminal reports whether the state can never change again.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed || s == StateStored }

// Request is one submitted sweep: the CLI's own sweep request, so a
// submission means exactly what the same `experiments sweep` flags mean.
type Request = experiments.SweepRequest

// Record is one run's persisted database entry.
type Record struct {
	SchemaVersion int     `json:"schema_version"`
	ID            string  `json:"id"`
	State         State   `json:"state"`
	Request       Request `json:"request"`
	// CreatedAt is submission time; StartedAt/FinishedAt bracket the
	// (latest) execution attempt, nil while not yet reached.
	CreatedAt  time.Time  `json:"created_at"`
	StartedAt  *time.Time `json:"started_at,omitempty"`
	FinishedAt *time.Time `json:"finished_at,omitempty"`
	// Error is the failure reason of a failed run.
	Error string `json:"error,omitempty"`
	// Attempts counts executions started (restart recovery increments it
	// before re-running, bounding crash loops).
	Attempts int `json:"attempts,omitempty"`
	// TotalJobs and ElapsedNanos describe a completed execution: grid
	// cells persisted under jobs/, and the sweep's wall clock.
	TotalJobs    int   `json:"total_jobs,omitempty"`
	ElapsedNanos int64 `json:"elapsed_nanos,omitempty"`
}

// DB is the embedded run database: report.Store's directory layout plus
// one exprun.json record per service-owned run.
type DB struct {
	Store report.Store
}

// OpenDB opens (creating if needed) a run database rooted at dir.
func OpenDB(dir string) (DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return DB{}, err
	}
	return DB{Store: report.Store{Root: dir}}, nil
}

// Dir returns a run's directory.
func (db DB) Dir(id string) string { return db.Store.Dir(id) }

// SaveRecord atomically persists one run record (temp file + rename,
// like every other file in the corpus): a reader — or a restart after a
// crash at any instant — sees either the previous record or the new one,
// never a torn file.
func (db DB) SaveRecord(rec Record) error {
	if !report.ValidArtifactID(rec.ID) {
		return fmt.Errorf("expsvc: invalid run ID %q", rec.ID)
	}
	rec.SchemaVersion = RecordSchemaVersion
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return fmt.Errorf("expsvc: marshal record %s: %w", rec.ID, err)
	}
	dir := db.Dir(rec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return report.AtomicWriteFile(filepath.Join(dir, recordFile), append(b, '\n'))
}

// LoadRecord reads one run's record.
func (db DB) LoadRecord(id string) (Record, error) {
	if !report.ValidArtifactID(id) {
		return Record{}, fmt.Errorf("expsvc: invalid run ID %q", id)
	}
	path := filepath.Join(db.Dir(id), recordFile)
	b, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(b, &rec); err != nil {
		return Record{}, fmt.Errorf("expsvc: parse %s: %w", path, err)
	}
	if rec.SchemaVersion != RecordSchemaVersion {
		return Record{}, fmt.Errorf("expsvc: %s has record schema version %d, want %d", path, rec.SchemaVersion, RecordSchemaVersion)
	}
	if rec.ID != id {
		return Record{}, fmt.Errorf("expsvc: %s declares run ID %q", path, rec.ID)
	}
	return rec, nil
}

// Records scans every run record in the database, sorted by creation
// time (ties by ID). Run directories without a record — corpus runs
// stored by other tools — are not included; see Service.Runs for the
// merged listing.
func (db DB) Records() ([]Record, error) {
	entries, err := os.ReadDir(db.Store.Root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var recs []Record
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := os.Stat(filepath.Join(db.Store.Root, e.Name(), recordFile)); err != nil {
			continue
		}
		rec, err := db.LoadRecord(e.Name())
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	sort.Slice(recs, func(a, b int) bool {
		if !recs[a].CreatedAt.Equal(recs[b].CreatedAt) {
			return recs[a].CreatedAt.Before(recs[b].CreatedAt)
		}
		return recs[a].ID < recs[b].ID
	})
	return recs, nil
}

// newRunID mints a run ID: creation instant (UTC, second granularity), a
// per-process sequence number (ordering submissions within one second),
// and random bits (so restarts and concurrent services on one database
// never collide). The result is a valid report store ID and sorts
// roughly by submission time.
func newRunID(now time.Time, seq int) string {
	var b [3]byte
	_, _ = rand.Read(b[:])
	return fmt.Sprintf("r%s-%04d-%s", now.UTC().Format("20060102T150405"), seq%10000, hex.EncodeToString(b[:]))
}
