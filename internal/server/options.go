package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"reflect"
	"strings"
	"time"

	"sigstream"
)

// Duration is a time.Duration that speaks both JSON and the flag
// package: it unmarshals from a Go duration string ("30s", "1m30s") or
// a bare number of nanoseconds, marshals back to the string form, and
// implements flag.Value so the same field backs a -flag and a config
// key without conversion.
type Duration time.Duration

// String renders the duration in time.Duration notation ("30s"); it is
// also the default shown by -help for flags bound to a Duration.
func (d Duration) String() string { return time.Duration(d).String() }

// Set implements flag.Value, parsing time.Duration notation.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// MarshalJSON renders the duration as a string ("30s"), the same form
// UnmarshalJSON and the command line accept.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON accepts a duration string ("30s") or a bare number of
// nanoseconds (the encoding a raw time.Duration would have used).
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		return d.Set(s)
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err == nil {
		*d = Duration(ns)
		return nil
	}
	return fmt.Errorf("duration must be a string like %q or nanoseconds, got %s", "30s", b)
}

// Options is the complete serving configuration of cmd/sigserver: one
// field per command-line flag, with JSON tags matching the flag names
// (dashes as underscores) so the same struct loads from a -config file.
// Zero values mean the same thing they mean on the command line —
// usually "use the built-in default" — and DefaultOptions supplies the
// non-zero flag defaults (listen address, timeouts, log level).
type Options struct {
	// Addr is the listen address (flag -addr).
	Addr string `json:"addr"`
	// MemoryBytes is the default tenant's tracker memory budget (-mem).
	MemoryBytes int `json:"mem"`
	// Alpha is the frequency weight α (-alpha).
	Alpha float64 `json:"alpha"`
	// Beta is the persistency weight β (-beta).
	Beta float64 `json:"beta"`
	// Shards is the tracker shard count, 0 = GOMAXPROCS (-shards).
	Shards int `json:"shards"`
	// Decay is the per-period decay factor λ ∈ (0,1), 0 = all-history
	// (-decay).
	Decay float64 `json:"decay"`
	// Slow is the slow-request log threshold, 0 disables (-slow).
	Slow Duration `json:"slow"`
	// LogLevel is debug, info, warn or error (-log-level).
	LogLevel string `json:"log_level"`
	// Pprof mounts /debug/pprof when true (-pprof).
	Pprof bool `json:"pprof"`
	// SnapshotDir enables crash-safe checkpoints; empty disables
	// (-snapshot-dir).
	SnapshotDir string `json:"snapshot_dir"`
	// SnapshotInterval is the periodic checkpoint cadence, 0 = only the
	// final snapshot on shutdown (-snapshot-interval).
	SnapshotInterval Duration `json:"snapshot_interval"`
	// SnapshotRetain is how many snapshots to keep, 0 = default
	// (-snapshot-retain).
	SnapshotRetain int `json:"snapshot_retain"`
	// TenantMem is the per-tenant tracker budget in bytes, 0 = same as
	// MemoryBytes (-tenant-mem).
	TenantMem int `json:"tenant_mem"`
	// TenantBudget caps total resident tenant memory in bytes, 0 =
	// unlimited (-tenant-budget).
	TenantBudget int64 `json:"tenant_budget"`
	// TenantQuota is the per-tenant sustained ingest quota in keys/sec,
	// 0 = unlimited (-tenant-quota).
	TenantQuota float64 `json:"tenant_quota"`
	// TenantBurst is the per-tenant ingest burst in keys, 0 =
	// quota-derived default (-tenant-burst).
	TenantBurst int `json:"tenant_burst"`
	// TenantIdle spills tenants idle this long, 0 = never (-tenant-idle).
	TenantIdle Duration `json:"tenant_idle"`
	// TenantMax bounds the number of namespaces, 0 = unlimited
	// (-tenant-max).
	TenantMax int `json:"tenant_max"`
	// WALDir enables the per-tenant write-ahead log; empty disables
	// (-wal-dir).
	WALDir string `json:"wal_dir"`
	// WALSync is the WAL group-commit window; ≤ 0 fsyncs every append
	// inline (-wal-sync).
	WALSync Duration `json:"wal_sync"`
	// WALSegment is the WAL segment rotation threshold in bytes, 0 =
	// default (-wal-segment).
	WALSegment int64 `json:"wal_segment"`
	// IngestAddr is the framed binary ingest TCP listen address; empty
	// disables the listener (-ingest-addr).
	IngestAddr string `json:"ingest_addr"`
	// IngestUDP is the UDP fire-and-forget ingest listen address; empty
	// disables it (-ingest-udp).
	IngestUDP string `json:"ingest_udp"`
	// IngestMaxFrame caps a binary ingest frame's payload in bytes, 0 =
	// default 1 MiB (-ingest-max-frame).
	IngestMaxFrame int `json:"ingest_max_frame"`
	// MaxBody caps request bodies in bytes, 0 = default 32 MiB
	// (-max-body).
	MaxBody int64 `json:"max_body"`
	// ReadTimeout is the per-connection read deadline, 0 disables
	// (-read-timeout).
	ReadTimeout Duration `json:"read_timeout"`
	// WriteTimeout is the per-connection write deadline, 0 disables
	// (-write-timeout).
	WriteTimeout Duration `json:"write_timeout"`
	// DrainTimeout is the graceful-shutdown deadline for in-flight
	// requests (-drain-timeout).
	DrainTimeout Duration `json:"drain_timeout"`
}

// DefaultOptions returns the flag defaults of cmd/sigserver: the
// configuration the server runs with when no flag and no config file
// says otherwise.
func DefaultOptions() Options {
	return Options{
		Addr:             ":8080",
		MemoryBytes:      1 << 20,
		Alpha:            1,
		Beta:             1,
		Slow:             Duration(time.Second),
		LogLevel:         "info",
		SnapshotInterval: Duration(time.Minute),
		ReadTimeout:      Duration(30 * time.Second),
		WriteTimeout:     Duration(30 * time.Second),
		DrainTimeout:     Duration(10 * time.Second),
	}
}

// LoadOptions reads a JSON config file into Options. Decoding starts
// from DefaultOptions, so a sparse file overrides only the keys it
// names; unknown keys are an error (a typoed key silently ignored is a
// production incident waiting to happen). The result is not validated —
// callers overlay flags first, then call Validate.
func LoadOptions(path string) (Options, error) {
	opts := DefaultOptions()
	data, err := os.ReadFile(path)
	if err != nil {
		return opts, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&opts); err != nil {
		return opts, fmt.Errorf("config %s: %w", path, err)
	}
	return opts, nil
}

// ApplyFlag copies the field bound to the named command-line flag from
// `from` into o — the flags-beat-file half of sigserver's precedence:
// after LoadOptions, main re-applies every explicitly set flag field by
// field. A flag name maps to the field whose JSON tag is the name with
// dashes as underscores (the documented correspondence), so a new
// Options field is covered the moment it gets its tag — there is no
// second list to keep in sync. Unknown names (such as -config itself,
// which has no Options field) return false and change nothing.
func (o *Options) ApplyFlag(name string, from Options) bool {
	key := strings.ReplaceAll(name, "-", "_")
	rv := reflect.ValueOf(o).Elem()
	rt := rv.Type()
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if tag == key && tag != "" {
			rv.Field(i).Set(reflect.ValueOf(from).Field(i))
			return true
		}
	}
	return false
}

// withDefaults fills the fields whose zero value has no serving meaning
// (address, log level, drain deadline) from DefaultOptions, so an
// Options built programmatically from a struct literal behaves like a
// bare command line rather than binding to ":" at level parse failure.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.Addr == "" {
		o.Addr = def.Addr
	}
	if o.LogLevel == "" {
		o.LogLevel = def.LogLevel
	}
	if o.MemoryBytes == 0 {
		o.MemoryBytes = def.MemoryBytes
	}
	if o.DrainTimeout == 0 {
		o.DrainTimeout = def.DrainTimeout
	}
	return o
}

// Validate rejects configurations the server would either refuse at
// runtime or silently serve wrong: a non-positive memory budget,
// negative weights or timeouts, a decay outside [0,1), an unparsable
// log level. It returns the first problem found.
func (o Options) Validate() error {
	if o.MemoryBytes <= 0 {
		return fmt.Errorf("mem must be positive, got %d", o.MemoryBytes)
	}
	if o.Alpha < 0 || o.Beta < 0 {
		return fmt.Errorf("alpha and beta must be non-negative, got %g and %g", o.Alpha, o.Beta)
	}
	if o.Decay < 0 || o.Decay >= 1 {
		return fmt.Errorf("decay must be in [0,1), got %g", o.Decay)
	}
	if o.Shards < 0 {
		return fmt.Errorf("shards must be non-negative, got %d", o.Shards)
	}
	if _, err := o.Level(); err != nil {
		return fmt.Errorf("bad log_level %q: %w", o.LogLevel, err)
	}
	if o.SnapshotRetain < 0 {
		return fmt.Errorf("snapshot_retain must be non-negative, got %d", o.SnapshotRetain)
	}
	if o.TenantMem < 0 || o.TenantBudget < 0 || o.TenantQuota < 0 || o.TenantBurst < 0 || o.TenantMax < 0 {
		return fmt.Errorf("tenant limits must be non-negative")
	}
	if o.WALSegment < 0 {
		return fmt.Errorf("wal_segment must be non-negative, got %d", o.WALSegment)
	}
	if o.MaxBody < 0 {
		return fmt.Errorf("max_body must be non-negative, got %d", o.MaxBody)
	}
	if o.IngestMaxFrame < 0 {
		return fmt.Errorf("ingest_max_frame must be non-negative, got %d", o.IngestMaxFrame)
	}
	for _, d := range []struct {
		name string
		v    Duration
	}{
		{"slow", o.Slow},
		{"snapshot_interval", o.SnapshotInterval},
		{"tenant_idle", o.TenantIdle},
		{"read_timeout", o.ReadTimeout},
		{"write_timeout", o.WriteTimeout},
		{"drain_timeout", o.DrainTimeout},
	} {
		if d.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %s", d.name, d.v)
		}
	}
	return nil
}

// Level parses the configured log level.
func (o Options) Level() (slog.Level, error) {
	var level slog.Level
	err := level.UnmarshalText([]byte(o.LogLevel))
	return level, err
}

// ServerConfig translates the resolved Options into the Config consumed
// by New. The logger is passed in because it is built from Options.Level
// by the caller, which also hands it to the request-logging middleware.
func (o Options) ServerConfig(logger *slog.Logger) Config {
	o = o.withDefaults()
	return Config{
		MemoryBytes:       o.MemoryBytes,
		Weights:           sigstream.Weights{Alpha: o.Alpha, Beta: o.Beta},
		Shards:            o.Shards,
		DecayFactor:       o.Decay,
		TenantMemoryBytes: o.TenantMem,
		TenantBudgetBytes: o.TenantBudget,
		TenantQuota:       o.TenantQuota,
		TenantBurst:       o.TenantBurst,
		TenantIdleAfter:   time.Duration(o.TenantIdle),
		TenantMax:         o.TenantMax,
		WALDir:            o.WALDir,
		WALSyncInterval:   time.Duration(o.WALSync),
		WALSegmentBytes:   o.WALSegment,
		MaxBodyBytes:      o.MaxBody,
		Logger:            logger,
	}
}

// IngestOptions translates the resolved Options into the binary ingest
// listener configuration for StartIngest; meaningful only when
// IngestAddr or IngestUDP is non-empty.
func (o Options) IngestOptions() IngestConfig {
	return IngestConfig{
		Addr:          o.IngestAddr,
		UDPAddr:       o.IngestUDP,
		MaxFrameBytes: o.IngestMaxFrame,
	}
}

// SnapshotOptions translates the resolved Options into the checkpoint
// configuration for StartSnapshots; meaningful only when SnapshotDir is
// non-empty.
func (o Options) SnapshotOptions() SnapshotConfig {
	return SnapshotConfig{
		Dir:      o.SnapshotDir,
		Interval: time.Duration(o.SnapshotInterval),
		Retain:   o.SnapshotRetain,
	}
}
