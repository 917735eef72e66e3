package api

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/ingest"
	"repro/internal/nn"
)

// nnProfiles indirection keeps the server's dispatch endpoint testable.
func nnProfiles() []nn.ModelProfile { return nn.Profiles() }

// DefaultClientTimeout bounds each client call when NewClient's caller
// does not override the transport.
const DefaultClientTimeout = 30 * time.Second

// Client is the typed cross-platform client library of §V. Every request
// carries a context: the convenience methods originate one internally
// (bounded by the HTTP client's timeout), and DoCtx-based variants let
// callers supply their own for cancellation or tighter deadlines.
//
//tvdp:surface the typed client library for programs outside this module
type Client struct {
	BaseURL string
	APIKey  string
	HTTP    *http.Client
}

// NewClient returns a client for the given base URL (no trailing slash)
// and API key, with DefaultClientTimeout on every call.
//
//tvdp:surface the client library's constructor for programs outside this module
func NewClient(baseURL, apiKey string) *Client {
	return NewClientTimeout(baseURL, apiKey, DefaultClientTimeout)
}

// NewClientTimeout is NewClient with an explicit per-call timeout;
// timeout <= 0 means unbounded (the caller then owns bounding calls via
// the ctx variants).
func NewClientTimeout(baseURL, apiKey string, timeout time.Duration) *Client {
	if timeout < 0 {
		timeout = 0
	}
	return &Client{
		BaseURL: baseURL,
		APIKey:  apiKey,
		HTTP:    &http.Client{Timeout: timeout},
	}
}

// APIError is a non-2xx response. ID, when non-zero, is the row the
// server persisted before failing — recover it rather than re-uploading.
type APIError struct {
	Status  int
	Message string
	ID      uint64
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("api: HTTP %d: %s", e.Status, e.Message)
}

// root originates the request context for the non-ctx convenience
// methods. The client library is a lifecycle boundary: its callers by
// definition have no surrounding request, so this is the one legitimate
// origination point in the package.
func (c *Client) root() context.Context {
	//tvdp:nolint ctxflow client convenience methods are lifecycle roots; calls stay bounded by the HTTP client timeout
	return context.Background()
}

func (c *Client) do(method, path string, in, out any) error {
	return c.doCtx(c.root(), method, path, in, out)
}

func (c *Client) doCtx(ctx context.Context, method, path string, in, out any) error {
	var body *bytes.Buffer
	if in != nil {
		body = &bytes.Buffer{}
		if err := json.NewEncoder(body).Encode(in); err != nil {
			return fmt.Errorf("api: encoding request: %w", err)
		}
	} else {
		body = &bytes.Buffer{}
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return err
	}
	//tvdp:nolint errdiscard response-body close errors are unactionable; the read path already surfaces transport failures
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return &APIError{Status: resp.StatusCode, Message: e.Error, ID: e.ID}
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return fmt.Errorf("api: decoding response: %w", err)
		}
	}
	return nil
}

// CreateUser registers a participant (bootstrap; no key required).
func (c *Client) CreateUser(name, role string) (uint64, error) {
	var out CreateUserResponse
	err := c.do("POST", "/api/v1/users", CreateUserRequest{Name: name, Role: role}, &out)
	return out.ID, err
}

// CreateKey mints an API key for a user (bootstrap; no key required).
func (c *Client) CreateKey(userID uint64) (string, error) {
	var out CreateKeyResponse
	err := c.do("POST", "/api/v1/keys", CreateKeyRequest{UserID: userID}, &out)
	return out.Key, err
}

// UploadImage adds new visual data on the synchronous compatibility path
// (mode=sync): the response carries the extracted FeatureKinds and the
// caller pays full extraction latency.
func (c *Client) UploadImage(req UploadImageRequest) (UploadImageResponse, error) {
	return c.UploadImageCtx(c.root(), req)
}

// UploadImageCtx is UploadImage bounded by the caller's context.
func (c *Client) UploadImageCtx(ctx context.Context, req UploadImageRequest) (UploadImageResponse, error) {
	var out UploadImageResponse
	err := c.doCtx(ctx, "POST", "/api/v1/images?mode=sync", req, &out)
	return out, err
}

// UploadImageAsync adds new visual data on the streaming path: the 202
// ack means the row is WAL-durable; PendingKinds extract behind it (poll
// ImageStatus). A 429 means the pipeline shed the record unpersisted.
func (c *Client) UploadImageAsync(req UploadImageRequest) (UploadImageResponse, error) {
	return c.UploadImageAsyncCtx(c.root(), req)
}

// UploadImageAsyncCtx is UploadImageAsync bounded by the caller's
// context.
func (c *Client) UploadImageAsyncCtx(ctx context.Context, req UploadImageRequest) (UploadImageResponse, error) {
	var out UploadImageResponse
	err := c.doCtx(ctx, "POST", "/api/v1/images", req, &out)
	return out, err
}

// ImageStatus reports one row's ingest progress ("queued", "failed",
// "done", or "unknown").
func (c *Client) ImageStatus(id uint64) (ingest.RecordStatus, error) {
	var out ingest.RecordStatus
	err := c.do("GET", fmt.Sprintf("/api/v1/images/%d/status", id), nil, &out)
	return out, err
}

// IngestStats fetches the pipeline counters.
func (c *Client) IngestStats() (IngestStatsDTO, error) {
	var out IngestStatsDTO
	err := c.do("GET", "/api/v1/ingest/stats", nil, &out)
	return out, err
}

// SweepIngest triggers a pending-extraction sweep and returns the number
// of rows re-queued.
func (c *Client) SweepIngest() (int, error) {
	var out SweepResponse
	err := c.do("POST", "/api/v1/ingest/sweep", nil, &out)
	return out.Requeued, err
}

// StreamImages submits records over the NDJSON /v1/stream endpoint and
// returns the per-record acks in request order. The Go HTTP/1.1 client
// cannot interleave request and response bodies, so acks are read after
// the full batch is sent; wire-level incremental acking is exercised by
// raw-connection tests and available to any client that streams.
func (c *Client) StreamImages(reqs []UploadImageRequest) ([]StreamAck, error) {
	return c.StreamImagesCtx(c.root(), reqs)
}

// StreamImagesCtx is StreamImages bounded by the caller's context.
func (c *Client) StreamImagesCtx(ctx context.Context, reqs []UploadImageRequest) ([]StreamAck, error) {
	var body bytes.Buffer
	enc := json.NewEncoder(&body)
	for _, r := range reqs {
		if err := enc.Encode(r); err != nil {
			return nil, fmt.Errorf("api: encoding stream record: %w", err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, "POST", c.BaseURL+"/api/v1/stream", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	//tvdp:nolint errdiscard response-body close errors are unactionable; the read path already surfaces transport failures
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, &APIError{Status: resp.StatusCode, Message: e.Error, ID: e.ID}
	}
	var acks []StreamAck
	dec := json.NewDecoder(resp.Body)
	for {
		var ack StreamAck
		if err := dec.Decode(&ack); err != nil {
			if errors.Is(err, io.EOF) {
				return acks, nil
			}
			return acks, fmt.Errorf("api: decoding stream ack: %w", err)
		}
		acks = append(acks, ack)
	}
}

// GetImage fetches metadata.
func (c *Client) GetImage(id uint64) (ImageMeta, error) {
	var out ImageMeta
	err := c.do("GET", fmt.Sprintf("/api/v1/images/%d", id), nil, &out)
	return out, err
}

// GetPixels fetches the raster payload.
func (c *Client) GetPixels(id uint64) (PixelsDTO, error) {
	var out PixelsDTO
	err := c.do("GET", fmt.Sprintf("/api/v1/images/%d/pixels", id), nil, &out)
	return out, err
}

// Annotate attaches a label to a stored image.
func (c *Client) Annotate(id uint64, req AnnotateRequest) error {
	return c.do("POST", fmt.Sprintf("/api/v1/images/%d/annotations", id), req, nil)
}

// Search runs a multi-modal query.
func (c *Client) Search(req SearchRequest) (SearchResponse, error) {
	return c.SearchCtx(c.root(), req)
}

// SearchCtx is Search bounded by the caller's context.
func (c *Client) SearchCtx(ctx context.Context, req SearchRequest) (SearchResponse, error) {
	var out SearchResponse
	err := c.doCtx(ctx, "POST", "/api/v1/search", req, &out)
	return out, err
}

// DownloadDataset fetches the metadata of all images with a label.
func (c *Client) DownloadDataset(classification, label string) ([]ImageMeta, error) {
	var out []ImageMeta
	q := url.Values{"classification": {classification}, "label": {label}}
	err := c.do("GET", "/api/v1/datasets?"+q.Encode(), nil, &out)
	return out, err
}

// ExtractFeature featurises an uploaded image.
func (c *Client) ExtractFeature(kind string, pixels PixelsDTO) (FeatureResponse, error) {
	var out FeatureResponse
	err := c.do("POST", "/api/v1/features/"+url.PathEscape(kind), FeatureRequest{Pixels: pixels}, &out)
	return out, err
}

// ListModels returns the registered model specs.
func (c *Client) ListModels() ([]ModelSpecDTO, error) {
	var out []ModelSpecDTO
	err := c.do("GET", "/api/v1/models", nil, &out)
	return out, err
}

// TrainModel devises a new model from stored annotated data.
func (c *Client) TrainModel(req TrainRequest) (ModelSpecDTO, error) {
	return c.TrainModelCtx(c.root(), req)
}

// TrainModelCtx is TrainModel bounded by the caller's context — training
// is the longest-running endpoint, so cancellable invocation matters most
// here.
func (c *Client) TrainModelCtx(ctx context.Context, req TrainRequest) (ModelSpecDTO, error) {
	var out ModelSpecDTO
	err := c.doCtx(ctx, "POST", "/api/v1/models/train", req, &out)
	return out, err
}

// Predict runs a registered model.
func (c *Client) Predict(model string, req PredictRequest) (PredictResponse, error) {
	var out PredictResponse
	err := c.do("POST", fmt.Sprintf("/api/v1/models/%s/predict", url.PathEscape(model)), req, &out)
	return out, err
}

// ModelAnnotate machine-annotates stored images with a model; empty ids
// means all images.
func (c *Client) ModelAnnotate(model string, ids []uint64) (annotated, skipped int, err error) {
	var out map[string]int
	body := map[string][]uint64{"image_ids": ids}
	err = c.do("POST", fmt.Sprintf("/api/v1/models/%s/annotate", url.PathEscape(model)), body, &out)
	return out["annotated"], out["skipped"], err
}

// ListClassifications returns all labelling schemes.
func (c *Client) ListClassifications() ([]ClassificationDTO, error) {
	var out []ClassificationDTO
	err := c.do("GET", "/api/v1/classifications", nil, &out)
	return out, err
}

// CreateClassification registers a labelling scheme.
func (c *Client) CreateClassification(name string, labels []string) (ClassificationDTO, error) {
	var out ClassificationDTO
	err := c.do("POST", "/api/v1/classifications", ClassificationDTO{Name: name, Labels: labels}, &out)
	return out, err
}

// Dispatch asks which model a device should run.
func (c *Client) Dispatch(req DispatchRequest) (DispatchResponse, error) {
	var out DispatchResponse
	err := c.do("POST", "/api/v1/edge/dispatch", req, &out)
	return out, err
}

// UploadVideo ingests a video as ordered key frames on the synchronous
// compatibility path (mode=sync). The response carries per-frame
// extraction status: a frame with an Error is still durable and will be
// re-driven by the pending sweep — do not re-upload the video.
func (c *Client) UploadVideo(req UploadVideoRequest) (UploadVideoResponse, error) {
	var out UploadVideoResponse
	err := c.do("POST", "/api/v1/videos?mode=sync", req, &out)
	return out, err
}

// UploadVideoAsync ingests a video on the streaming path: the 202 ack
// means every frame is WAL-durable (one batch); extraction follows in
// frame order on the source's partition.
func (c *Client) UploadVideoAsync(req UploadVideoRequest) (UploadVideoResponse, error) {
	var out UploadVideoResponse
	err := c.do("POST", "/api/v1/videos", req, &out)
	return out, err
}

// ListVideos returns all stored videos.
func (c *Client) ListVideos() ([]VideoDTO, error) {
	var out []VideoDTO
	err := c.do("GET", "/api/v1/videos", nil, &out)
	return out, err
}

// GetVideo fetches one video's metadata and frame list.
func (c *Client) GetVideo(id uint64) (VideoDTO, error) {
	var out VideoDTO
	err := c.do("GET", fmt.Sprintf("/api/v1/videos/%d", id), nil, &out)
	return out, err
}

// DownloadModel fetches the portable form of a trained model for local
// execution (API 6 of §V).
func (c *Client) DownloadModel(name string) ([]byte, error) {
	return c.DownloadModelCtx(c.root(), name)
}

// DownloadModelCtx is DownloadModel bounded by the caller's context.
func (c *Client) DownloadModelCtx(ctx context.Context, name string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.BaseURL+"/api/v1/models/"+url.PathEscape(name)+"/download", nil)
	if err != nil {
		return nil, err
	}
	if c.APIKey != "" {
		req.Header.Set("X-API-Key", c.APIKey)
	}
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	//tvdp:nolint errdiscard response-body close errors are unactionable; the read path already surfaces transport failures
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return nil, &APIError{Status: resp.StatusCode, Message: e.Error}
	}
	return io.ReadAll(resp.Body)
}

// ImportModel registers a previously exported model on the server.
func (c *Client) ImportModel(data []byte) (ModelSpecDTO, error) {
	var out ModelSpecDTO
	err := c.do("POST", "/api/v1/models/import", json.RawMessage(data), &out)
	return out, err
}

// CreateCampaign registers a data-collection campaign.
func (c *Client) CreateCampaign(req CampaignDTO) (CampaignDTO, error) {
	var out CampaignDTO
	err := c.do("POST", "/api/v1/campaigns", req, &out)
	return out, err
}

// ListCampaigns returns all campaigns with attached-upload counts.
func (c *Client) ListCampaigns() ([]CampaignDTO, error) {
	var out []CampaignDTO
	err := c.do("GET", "/api/v1/campaigns", nil, &out)
	return out, err
}

// CampaignCoverage measures a campaign region's current FOV coverage.
func (c *Client) CampaignCoverage(id uint64, rows, cols int) (CoverageReport, error) {
	var out CoverageReport
	q := url.Values{}
	if rows > 0 {
		q.Set("rows", fmt.Sprint(rows))
	}
	if cols > 0 {
		q.Set("cols", fmt.Sprint(cols))
	}
	path := fmt.Sprintf("/api/v1/campaigns/%d/coverage", id)
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	err := c.do("GET", path, nil, &out)
	return out, err
}
