// Package client is a typed Go client for the sigstream HTTP service
// (internal/server, cmd/sigserver): batch inserts, period control, top-k
// and point queries, stats, checkpoint download/restore and tenant
// administration.
//
// The surface is tenant-scoped and context-first: obtain a handle with
// Client.Tenant (or Client.Default for the reserved default namespace,
// over the legacy un-namespaced routes) and pass a context.Context to
// every request method, so callers can cancel in-flight requests and
// bound deadlines.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// DefaultNamespace is the service's reserved namespace behind the legacy
// un-namespaced routes.
const DefaultNamespace = "default"

// Entry mirrors the service's JSON estimate.
type Entry struct {
	Key          string  `json:"key"`
	Item         uint64  `json:"item"`
	Frequency    uint64  `json:"frequency"`
	Persistency  uint64  `json:"persistency"`
	Significance float64 `json:"significance"`
}

// TrackerStats mirrors the service's typed tracker snapshot
// (sigstream.Stats): identity, geometry, occupancy and the cumulative
// operation counters of the LTC core.
type TrackerStats struct {
	Tracker       string  `json:"tracker"`
	MemoryBytes   int     `json:"memory_bytes"`
	Shards        int     `json:"shards"`
	Buckets       int     `json:"buckets"`
	BucketWidth   int     `json:"bucket_width"`
	Cells         int     `json:"cells"`
	OccupiedCells int     `json:"occupied_cells"`
	Alpha         float64 `json:"alpha"`
	Beta          float64 `json:"beta"`
	Periods       uint64  `json:"periods"`
	Arrivals      uint64  `json:"arrivals"`
	Batches       uint64  `json:"batches"`
	BatchedItems  uint64  `json:"batched_items"`
	Hits          uint64  `json:"hits"`
	Admissions    uint64  `json:"admissions"`
	Decrements    uint64  `json:"decrements"`
	Expulsions    uint64  `json:"expulsions"`
	FlagsConsumed uint64  `json:"flags_consumed"`
	CellsSwept    uint64  `json:"cells_swept"`
	ParityFlips   uint64  `json:"parity_flips"`
}

// SnapshotStats mirrors the durability section of the service's stats:
// residency, spill/revive history, snapshot age and the last recovery
// outcome.
type SnapshotStats struct {
	Resident     bool    `json:"resident"`
	Spills       uint64  `json:"spills"`
	Revives      uint64  `json:"revives"`
	Saves        uint64  `json:"saves"`
	Errors       uint64  `json:"errors"`
	LastSaveUnix int64   `json:"last_save_unix"`
	AgeSeconds   float64 `json:"age_seconds"`
	LastRecovery string  `json:"last_recovery"`
}

// WALStats mirrors the write-ahead-log section of the service's stats,
// present only when the server runs with a WAL.
type WALStats struct {
	Appends       uint64 `json:"appends"`
	AppendedBytes uint64 `json:"appended_bytes"`
	Syncs         uint64 `json:"syncs"`
	Rotations     uint64 `json:"rotations"`
	Truncations   uint64 `json:"truncations"`
	Segments      int    `json:"segments"`
	DiskBytes     int64  `json:"disk_bytes"`
}

// Stats mirrors the service's /v1/stats payload: the flat service-level
// fields plus the typed tracker, snapshot and (when the server runs a
// WAL) wal sections.
type Stats struct {
	Tenant      string        `json:"tenant"`
	MemoryBytes int           `json:"memory_bytes"`
	Shards      int           `json:"shards"`
	Arrivals    uint64        `json:"arrivals"`
	Periods     uint64        `json:"periods"`
	Keys        int           `json:"distinct_keys_seen"` // key names held, at most twice the cells
	Alpha       float64       `json:"alpha"`
	Beta        float64       `json:"beta"`
	Tracker     TrackerStats  `json:"tracker"`
	Snapshot    SnapshotStats `json:"snapshot"`
	WAL         *WALStats     `json:"wal,omitempty"`
}

// TenantInfo mirrors one row of the service's tenant listing.
type TenantInfo struct {
	Namespace    string `json:"namespace"`
	Pinned       bool   `json:"pinned"`
	Resident     bool   `json:"resident"`
	Arrivals     uint64 `json:"arrivals"`
	Periods      uint64 `json:"periods"`
	Spills       uint64 `json:"spills"`
	Revives      uint64 `json:"revives"`
	QuotaDenials uint64 `json:"quota_denials"`
	Dirty        bool   `json:"dirty"`
	LastSaveUnix int64  `json:"last_save_unix"`
}

// TenantList mirrors the service's /v1/tenants payload.
type TenantList struct {
	Tenants       []TenantInfo `json:"tenants"`
	Count         int          `json:"count"`
	Resident      int          `json:"resident"`
	ResidentBytes int64        `json:"resident_bytes"`
	BudgetBytes   int64        `json:"budget_bytes"`
	CostPerTenant int64        `json:"cost_per_tenant_bytes"`
}

// ErrNotTracked reports a point query for an unknown key.
var ErrNotTracked = fmt.Errorf("sigstream client: key not tracked")

// ErrNotModified reports a conditional checkpoint download whose tag
// matched the tenant's tracker: the server shipped no image.
var ErrNotModified = fmt.Errorf("sigstream client: checkpoint not modified")

// ThrottledError reports a 429 — the tenant's ingest quota is exhausted
// and the batch was neither logged nor applied — with the server's retry
// hint.
type ThrottledError struct {
	// RetryAfter is the server's suggested backoff.
	RetryAfter time.Duration
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *ThrottledError) Error() string {
	return fmt.Sprintf("sigstream client: throttled (retry after %s): %s",
		e.RetryAfter, e.Message)
}

// APIError reports any non-200 response that is not a throttle: the HTTP
// status, the server's stable machine-readable code (the envelope's
// "code" field — branch on this, not on Message), and the human-readable
// message. Responses from servers predating the typed envelope carry the
// raw body as Message and an empty Code.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Code is the server's stable error identifier ("bad_request",
	// "not_found", "conflict", ...), empty when the server did not send a
	// typed envelope.
	Code string
	// Message is the server's error text.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("sigstream client: %d %s: %s", e.Status, e.Code, e.Message)
	}
	return fmt.Sprintf("sigstream client: status %d: %s", e.Status, e.Message)
}

// Client talks to one sigstream service.
type Client struct {
	base string
	http *http.Client
}

// New creates a client for the service at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for a 10-second-timeout
// default.
func New(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 10 * time.Second}
	}
	return &Client{base: strings.TrimRight(baseURL, "/"), http: httpClient}
}

// Tenant returns a handle scoped to one namespace; every request it
// makes targets the /v1/t/{ns}/* routes. Handles are cheap and safe for
// concurrent use.
func (c *Client) Tenant(ns string) *Tenant {
	return &Tenant{c: c, ns: ns, prefix: "/v1/t/" + url.PathEscape(ns)}
}

// Default returns a handle for the reserved default namespace via the
// legacy un-namespaced routes, so it works against pre-namespace servers
// too.
func (c *Client) Default() *Tenant {
	return &Tenant{c: c, ns: DefaultNamespace, prefix: "/v1"}
}

// Tenants lists the service's namespaces with registry totals.
func (c *Client) Tenants(ctx context.Context) (TenantList, error) {
	resp, err := c.get(ctx, "/v1/tenants")
	if err != nil {
		return TenantList{}, err
	}
	var out TenantList
	if err := decode(resp, &out); err != nil {
		return TenantList{}, err
	}
	return out, nil
}

// CreateTenant registers a namespace without ingesting anything (inserts
// auto-create, so this is only needed to reserve a namespace up front).
func (c *Client) CreateTenant(ctx context.Context, ns string) error {
	body, err := json.Marshal(map[string]string{"namespace": ns})
	if err != nil {
		return err
	}
	resp, err := c.post(ctx, "/v1/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// DeleteTenant removes a namespace, its tracker and its snapshots.
func (c *Client) DeleteTenant(ctx context.Context, ns string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete,
		c.base+"/v1/t/"+url.PathEscape(ns), nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// Ready probes the service's readiness endpoint: nil when it is
// accepting traffic, a typed error (usually a 503 *APIError) while it
// restores or drains — or, for a coordinator, before its first committed
// view.
func (c *Client) Ready(ctx context.Context) error {
	resp, err := c.get(ctx, "/readyz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// ClusterView mirrors the coordinator's /v1/topk payload: the committed
// cluster-wide ranking with its provenance.
type ClusterView struct {
	// Epoch is the committed view's epoch.
	Epoch int `json:"epoch"`
	// CommittedUnix is when the view was installed (Unix seconds).
	CommittedUnix int64 `json:"committed_unix"`
	// AgeSeconds is the view's age at response time.
	AgeSeconds float64 `json:"age_seconds"`
	// Stale reports that at least one round failed to commit since the
	// view was installed.
	Stale bool `json:"stale"`
	// Entries is the ranked item list.
	Entries []Entry `json:"entries"`
}

// ClusterTopology mirrors the coordinator's partition-map summary.
type ClusterTopology struct {
	// Sites is the member-site count.
	Sites int `json:"sites"`
	// Partitions is the partition count P.
	Partitions int `json:"partitions"`
	// Replicas is the replication factor R.
	Replicas int `json:"replicas"`
	// Quorum is the per-partition read quorum ⌈R/2⌉.
	Quorum int `json:"quorum"`
}

// ClusterSiteStatus mirrors one site's row in the coordinator's status.
type ClusterSiteStatus struct {
	// Site is the site's base URL.
	Site string `json:"site"`
	// Health is "healthy", "degraded" or "tripped".
	Health string `json:"health"`
	// Breaker is the circuit-breaker position.
	Breaker string `json:"breaker"`
	// Failures is the consecutive failed-round streak.
	Failures int `json:"failures"`
	// LastEpoch is the last committed epoch the site contributed to.
	LastEpoch int `json:"last_epoch"`
	// Skips lists the last round's per-partition skip reasons.
	Skips []string `json:"skips"`
}

// ClusterPartitionStatus mirrors one partition's row in the
// coordinator's status.
type ClusterPartitionStatus struct {
	// Partition is the partition index.
	Partition int `json:"partition"`
	// Namespace is the tenant namespace hosting the partition.
	Namespace string `json:"namespace"`
	// Reported is the replica count that answered last round.
	Reported int `json:"reported"`
	// Quorum reports whether Reported reached the read quorum.
	Quorum bool `json:"quorum"`
	// MergedFrom is the site whose image entered the view.
	MergedFrom string `json:"merged_from"`
	// Empty reports an answering-but-dataless partition.
	Empty bool `json:"empty"`
}

// ClusterRound mirrors the coordinator's last-round report.
type ClusterRound struct {
	// Epoch is the view epoch after the round.
	Epoch int `json:"epoch"`
	// Committed reports whether the round installed a new view.
	Committed bool `json:"committed"`
	// Reason explains an uncommitted round.
	Reason string `json:"reason"`
	// Partitions holds per-partition outcomes.
	Partitions []ClusterPartitionStatus `json:"partitions"`
	// Sites holds per-site outcomes.
	Sites []ClusterSiteStatus `json:"sites"`
}

// ClusterViewInfo mirrors the coordinator's committed-view provenance.
type ClusterViewInfo struct {
	// Epoch is the view's commit epoch.
	Epoch int `json:"epoch"`
	// AgeSeconds is the view's age at response time.
	AgeSeconds float64 `json:"age_seconds"`
	// Stale reports an uncommitted round since the view was installed.
	Stale bool `json:"stale"`
	// MemoryBytes is the view's size: the summed tracker budgets of the
	// partition images it holds.
	MemoryBytes int `json:"memory_bytes"`
}

// ClusterStatus mirrors the coordinator's /v1/cluster/status payload.
type ClusterStatus struct {
	// Topology summarizes the partition map.
	Topology ClusterTopology `json:"topology"`
	// View is the committed view's provenance, nil before the first
	// commit.
	View *ClusterViewInfo `json:"view"`
	// Round is the last gather round's report, nil before the first
	// round.
	Round *ClusterRound `json:"round"`
}

// ClusterTopK fetches the cluster-wide top-k ranking from a coordinator
// (cmd/sigcoord). A 503 *APIError means no view has been committed yet.
func (c *Client) ClusterTopK(ctx context.Context, k int) (ClusterView, error) {
	resp, err := c.get(ctx, "/v1/topk?k="+strconv.Itoa(k))
	if err != nil {
		return ClusterView{}, err
	}
	var out ClusterView
	if err := decode(resp, &out); err != nil {
		return ClusterView{}, err
	}
	return out, nil
}

// ClusterStatus fetches a coordinator's per-site and per-partition
// health report.
func (c *Client) ClusterStatus(ctx context.Context) (ClusterStatus, error) {
	resp, err := c.get(ctx, "/v1/cluster/status")
	if err != nil {
		return ClusterStatus{}, err
	}
	var out ClusterStatus
	if err := decode(resp, &out); err != nil {
		return ClusterStatus{}, err
	}
	return out, nil
}

// get issues a context-carrying GET against a service path.
func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.http.Do(req)
}

// post issues a context-carrying POST against a service path.
func (c *Client) post(ctx context.Context, path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.http.Do(req)
}

// Tenant is a namespace-scoped view of a Client. Every method hits the
// handle's namespace on the service and takes a context for cancellation
// and deadlines.
type Tenant struct {
	c      *Client
	ns     string
	prefix string // "/v1/t/<ns>", or "/v1" for the legacy default handle
}

// Namespace reports the handle's namespace.
func (t *Tenant) Namespace() string { return t.ns }

// Insert ships a batch of keys (one arrival each, in order) and returns
// the number the service ingested. A quota breach returns a
// *ThrottledError with the server's backoff hint.
func (t *Tenant) Insert(ctx context.Context, keys ...string) (uint64, error) {
	body := strings.Join(keys, "\n")
	resp, err := t.c.post(ctx, t.prefix+"/insert", "text/plain",
		strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	var out struct {
		Inserted uint64 `json:"inserted"`
	}
	if err := decode(resp, &out); err != nil {
		return 0, err
	}
	return out.Inserted, nil
}

// EndPeriod closes the tenant's current period and returns the total
// period count.
func (t *Tenant) EndPeriod(ctx context.Context) (uint64, error) {
	resp, err := t.c.post(ctx, t.prefix+"/period", "text/plain", nil)
	if err != nil {
		return 0, err
	}
	var out struct {
		Periods uint64 `json:"periods"`
	}
	if err := decode(resp, &out); err != nil {
		return 0, err
	}
	return out.Periods, nil
}

// TopK fetches the tenant's k most significant items.
func (t *Tenant) TopK(ctx context.Context, k int) ([]Entry, error) {
	resp, err := t.c.get(ctx, t.prefix+"/top?k="+strconv.Itoa(k))
	if err != nil {
		return nil, err
	}
	var out []Entry
	if err := decode(resp, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Query fetches one key's estimate; ErrNotTracked when unknown.
func (t *Tenant) Query(ctx context.Context, key string) (Entry, error) {
	resp, err := t.c.get(ctx, t.prefix+"/query?key="+url.QueryEscape(key))
	if err != nil {
		return Entry{}, err
	}
	if resp.StatusCode == http.StatusNotFound {
		resp.Body.Close()
		return Entry{}, ErrNotTracked
	}
	var out Entry
	if err := decode(resp, &out); err != nil {
		return Entry{}, err
	}
	return out, nil
}

// Stats fetches the tenant's statistics, including snapshot age and the
// last recovery outcome.
func (t *Tenant) Stats(ctx context.Context) (Stats, error) {
	resp, err := t.c.get(ctx, t.prefix+"/stats")
	if err != nil {
		return Stats{}, err
	}
	var out Stats
	if err := decode(resp, &out); err != nil {
		return Stats{}, err
	}
	return out, nil
}

// Checkpoint downloads a binary snapshot of the tenant's tracker.
func (t *Tenant) Checkpoint(ctx context.Context) ([]byte, error) {
	return t.CheckpointIfChanged(ctx, "")
}

// CheckpointIfChanged is Checkpoint made conditional: the request carries
// tag (a sigstream.CheckpointTag) as If-None-Match, and when it is the
// tenant tracker's tag the server ships no image and the call returns
// ErrNotModified. The empty tag downloads unconditionally.
func (t *Tenant) CheckpointIfChanged(ctx context.Context, tag string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.c.base+t.prefix+"/checkpoint", nil)
	if err != nil {
		return nil, err
	}
	if tag != "" {
		req.Header.Set("If-None-Match", tag)
	}
	resp, err := t.c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return readImage(resp)
	case http.StatusNotModified:
		return nil, ErrNotModified
	}
	return nil, statusError(resp)
}

// maxImagePrealloc caps the buffer a checkpoint download sizes from the
// response's declared Content-Length (64 MiB).
const maxImagePrealloc = 64 << 20

// readImage reads a checkpoint body into one buffer of its declared
// length. A body declaring more than maxImagePrealloc, or no length, is
// read by growing the buffer instead, so a forged length cannot force a
// huge allocation; a body shorter than declared is an error.
func readImage(resp *http.Response) ([]byte, error) {
	n := resp.ContentLength
	if n < 0 || n > maxImagePrealloc {
		return io.ReadAll(resp.Body)
	}
	img := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, img); err != nil {
		return nil, err
	}
	return img, nil
}

// Restore replaces the tenant's tracker state with a snapshot.
func (t *Tenant) Restore(ctx context.Context, checkpoint []byte) error {
	resp, err := t.c.post(ctx, t.prefix+"/restore", "application/octet-stream",
		bytes.NewReader(checkpoint))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return nil
}

// decode consumes a JSON 200 response into v, translating throttles and
// other non-200s into typed errors.
func decode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return statusError(resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// statusError turns a non-200 response into a typed error. The body is
// the server's JSON error envelope {code, message, retry_after_seconds?};
// 429 becomes a *ThrottledError carrying the backoff hint (envelope field
// first, Retry-After header as fallback), everything else a *APIError
// carrying the envelope's stable code. A non-envelope body (an older
// server, a proxy error page) degrades to the raw text with no code.
func statusError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	msg := strings.TrimSpace(string(body))
	var env struct {
		Code              string `json:"code"`
		Message           string `json:"message"`
		RetryAfterSeconds int    `json:"retry_after_seconds"`
	}
	if err := json.Unmarshal(body, &env); err == nil && env.Code != "" {
		msg = env.Message
	} else {
		env.Code = ""
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		after := time.Second
		if env.RetryAfterSeconds > 0 {
			after = time.Duration(env.RetryAfterSeconds) * time.Second
		} else if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				after = time.Duration(secs) * time.Second
			}
		}
		return &ThrottledError{RetryAfter: after, Message: msg}
	}
	return &APIError{Status: resp.StatusCode, Code: env.Code, Message: msg}
}
