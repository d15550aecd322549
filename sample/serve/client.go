package serve

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

	"repro/internal/obs"
	"repro/internal/wire"
)

// maxSnapshotFetch bounds what the client will buffer for one node's
// snapshot: 256 MiB is orders of magnitude past the largest pool the
// library builds, while keeping a misbehaving peer from ballooning the
// aggregator's memory.
const maxSnapshotFetch = 256 << 20

// Client is the typed HTTP client for a Node or Aggregator. The zero
// HTTP field uses http.DefaultClient; point it at a client with
// timeouts for production use.
type Client struct {
	// Base is the server's base URL, e.g. "http://10.0.0.7:8080".
	Base string
	// HTTP overrides the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for the node or aggregator at base.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// newRequest builds a request carrying ctx and, when the context holds
// a tracing ID (obs.ContextWithRequestID — a server handler's context
// always does), the X-Request-ID header. This is the propagation hop:
// an aggregator answering a traced query fans out node fetches that
// carry the same ID, so one slow or failing client query lines up
// across every server's logs and error bodies.
func (c *Client) newRequest(ctx context.Context, method, url string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return nil, err
	}
	if id := obs.RequestIDFromContext(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	return req, nil
}

// Ingest posts one batch of updates as JSON and returns the node's
// acknowledgement. Cancellation of ctx applies, and a tracing ID in
// ctx rides the request (see newRequest); every Client method works
// this way.
func (c *Client) Ingest(ctx context.Context, items []int64) (IngestResponse, error) {
	body, err := json.Marshal(IngestRequest{Items: items})
	if err != nil {
		return IngestResponse{}, err
	}
	return c.postIngest(ctx, body, ContentTypeJSON)
}

// IngestBinary posts one batch as the binary item frame
// (application/x-tp-items) — the fast path: the frame encodes in one
// pass with no JSON marshalling, and the node decodes it with zero
// intermediate slices straight into the engine batch. The
// acknowledgement contract is identical to Ingest's.
func (c *Client) IngestBinary(ctx context.Context, items []int64) (IngestResponse, error) {
	return c.postIngest(ctx, wire.EncodeItems(items), ContentTypeBinary)
}

// postIngest posts one encoded batch under the given content type.
func (c *Client) postIngest(ctx context.Context, body []byte, contentType string) (IngestResponse, error) {
	req, err := c.newRequest(ctx, http.MethodPost, c.Base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return IngestResponse{}, fmt.Errorf("serve: ingest %s: %w", c.Base, err)
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.http().Do(req)
	if err != nil {
		return IngestResponse{}, fmt.Errorf("serve: ingest %s: %w", c.Base, err)
	}
	var out IngestResponse
	return out, decodeResponse(resp, &out)
}

// SampleK draws up to k mutually independent merged samples (k is
// clamped server-side to the provisioned query-group count).
func (c *Client) SampleK(ctx context.Context, k int) (SampleResponse, error) {
	var out SampleResponse
	return out, c.getJSON(ctx, "/sample?k="+strconv.Itoa(k), &out)
}

// Stats fetches a node's stats.
func (c *Client) Stats(ctx context.Context) (NodeStats, error) {
	var out NodeStats
	return out, c.getJSON(ctx, "/stats", &out)
}

// AggregatorStats fetches an aggregator's stats.
func (c *Client) AggregatorStats(ctx context.Context) (AggregatorStats, error) {
	var out AggregatorStats
	return out, c.getJSON(ctx, "/stats", &out)
}

// Metrics fetches the server's Prometheus text exposition — what a
// scraper sees on GET /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	req, err := c.newRequest(ctx, http.MethodGet, c.Base+"/metrics", nil)
	if err != nil {
		return "", fmt.Errorf("serve: metrics %s: %w", c.Base, err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return "", fmt.Errorf("serve: metrics %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", responseError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotFetch))
	if err != nil {
		return "", fmt.Errorf("serve: metrics %s: %w", c.Base, err)
	}
	return string(data), nil
}

// getJSON fetches a JSON endpoint into out.
func (c *Client) getJSON(ctx context.Context, path string, out any) error {
	req, err := c.newRequest(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return fmt.Errorf("serve: %s %s: %w", path, c.Base, err)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return fmt.Errorf("serve: %s %s: %w", path, c.Base, err)
	}
	return decodeResponse(resp, out)
}

// SnapshotResult is one answer from SnapshotSince.
type SnapshotResult struct {
	// Data is the response body: full v1 snapshot bytes, or a v2 delta
	// when Base is set. nil when NotModified.
	Data []byte
	// Name is the content-addressed name of the node's *current state*
	// (always the resolved full snapshot's name, never a delta's).
	Name string
	// Base, when non-empty, marks Data as a v2 delta against the full
	// snapshot of that name — resolve before decoding.
	Base string
	// NotModified reports a 304: the node's state is still the
	// snapshot named by the since argument; no body was transferred.
	NotModified bool
}

// SnapshotSince fetches the node's current checkpoint conditionally:
// since (a content-addressed name from an earlier fetch, or "" for an
// unconditional fetch of the raw v1 bytes and their name) rides both
// as ?since= and as If-None-Match, so an unchanged node answers 304
// with no body — one header round-trip — and a delta-capable node that
// still holds the since state answers with just the v2 delta (Base
// set). Peers that speak neither answer with a plain full snapshot;
// callers need no capability negotiation. The aggregator's fan-out
// passes each query's context, which is how one client query's
// tracing ID shows up in every node's request log.
func (c *Client) SnapshotSince(ctx context.Context, since string) (SnapshotResult, error) {
	u := c.Base + "/snapshot"
	if since != "" {
		u += "?since=" + url.QueryEscape(since)
	}
	req, err := c.newRequest(ctx, http.MethodGet, u, nil)
	if err != nil {
		return SnapshotResult{}, fmt.Errorf("serve: snapshot %s: %w", c.Base, err)
	}
	if since != "" {
		req.Header.Set("If-None-Match", `"`+since+`"`)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return SnapshotResult{}, fmt.Errorf("serve: snapshot %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotModified {
		name := strings.Trim(resp.Header.Get("ETag"), `"`)
		if h := resp.Header.Get("X-Snapshot-Name"); h != "" {
			name = h
		}
		if name == "" {
			name = since
		}
		return SnapshotResult{Name: name, NotModified: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return SnapshotResult{}, responseError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotFetch+1))
	if err != nil {
		return SnapshotResult{}, fmt.Errorf("serve: snapshot %s: %w", c.Base, err)
	}
	if len(data) > maxSnapshotFetch {
		return SnapshotResult{}, fmt.Errorf("serve: snapshot from %s exceeds %d bytes", c.Base, int64(maxSnapshotFetch))
	}
	return SnapshotResult{
		Data: data,
		Name: resp.Header.Get("X-Snapshot-Name"),
		Base: resp.Header.Get("X-Snapshot-Base"),
	}, nil
}

// SummaryResult is one answer from Summary.
type SummaryResult struct {
	// Data is the encoded acceptance summary (snap.DecodeSummary); nil
	// when NotModified.
	Data []byte
	// ETag names the node's plan instance the summary was read from.
	ETag string
	// NotModified reports a 304: the plan instance is still the one the
	// etag argument named, so the caller's summary stays exact.
	NotModified bool
}

// Summary fetches a node's acceptance summary covering at least k
// query groups (clamped to the node's provisioned count), conditionally
// on etag (from an earlier SummaryResult; "" fetches unconditionally):
// a node still serving that plan instance answers 304 with no body.
// A node that does not summarize answers with an error status (501 from
// a sampler node, 404 from a peer without the endpoint), reported as a
// *StatusError; its snapshot is the fallback.
func (c *Client) Summary(ctx context.Context, k int, etag string) (SummaryResult, error) {
	req, err := c.newRequest(ctx, http.MethodGet, c.Base+"/summary?k="+strconv.Itoa(k), nil)
	if err != nil {
		return SummaryResult{}, fmt.Errorf("serve: summary %s: %w", c.Base, err)
	}
	if etag != "" {
		req.Header.Set("If-None-Match", `"`+etag+`"`)
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return SummaryResult{}, fmt.Errorf("serve: summary %s: %w", c.Base, err)
	}
	defer resp.Body.Close()
	tag := strings.Trim(resp.Header.Get("ETag"), `"`)
	if resp.StatusCode == http.StatusNotModified {
		return SummaryResult{ETag: tag, NotModified: true}, nil
	}
	if resp.StatusCode != http.StatusOK {
		return SummaryResult{}, responseError(resp)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSnapshotFetch+1))
	if err != nil {
		return SummaryResult{}, fmt.Errorf("serve: summary %s: %w", c.Base, err)
	}
	if len(data) > maxSnapshotFetch {
		return SummaryResult{}, fmt.Errorf("serve: summary from %s exceeds %d bytes", c.Base, int64(maxSnapshotFetch))
	}
	return SummaryResult{Data: data, ETag: tag}, nil
}

// decodeResponse parses a JSON 2xx body into out, or the error
// envelope otherwise.
func decodeResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return responseError(resp)
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSnapshotFetch)).Decode(out); err != nil {
		return fmt.Errorf("serve: malformed response from %s: %w", resp.Request.URL, err)
	}
	return nil
}

// StatusError is the error for a request the server answered with a
// non-2xx status. Callers use it to tell "the peer answered and
// refused" apart from "the peer did not answer" (transport errors) —
// the aggregator maps the former to 422 and the latter to 502.
type StatusError struct {
	Status int
	Msg    string
	URL    string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("serve: %s: %s (HTTP %d)", e.URL, e.Msg, e.Status)
}

// responseError turns a non-2xx response into a *StatusError carrying
// the server's JSON error envelope (or the raw body when it isn't one).
func responseError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	msg := strings.TrimSpace(string(body))
	var e errorBody
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		msg = e.Error
	}
	return &StatusError{Status: resp.StatusCode, Msg: msg, URL: resp.Request.URL.String()}
}
