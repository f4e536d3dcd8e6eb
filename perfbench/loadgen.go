package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// call is one scheduled request of an open loop.
type call struct {
	Due  time.Duration // offset from the loop start
	Path string        // request path, POSTed with Body
	Body []byte        // POST body
	Tag  int           // caller's index into its own bookkeeping
}

// reply is what the loop observed for one call. Times are absolute.
type reply struct {
	Call    call
	Due     time.Time
	Sent    time.Time
	Headers time.Time
	// Start is, for a campaign followed by followMisses, when its job
	// could first run: the later of its submission and the end of the
	// previous followed stream (one runner takes jobs in order).
	Start     time.Time
	FirstLine time.Time // zero when the body had no complete line
	Done      time.Time
	Status    int
	Body      []byte
	Err       error
}

// lateness is how long after its due time the request was sent.
func (r reply) lateness() time.Duration { return r.Sent.Sub(r.Due) }

// oneConn is a client that keeps at most one connection.
func oneConn() (*http.Client, func()) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &http.Client{Transport: tr}, tr.CloseIdleConnections
}

// openLoop sends every stream's calls at their due times, each stream on
// its own single connection: a stream sends its next call when it is due
// or, when the previous call is still running, as soon as it completes —
// and the reply records how late that was. Callers time each request from
// its due time, so a stall shows up as latency on every later request of
// the stream. done, when not nil, sees every reply as it completes. It
// returns once every call has completed.
func openLoop(ctx context.Context, base string, t0 time.Time, streams [][]call, done func(reply)) [][]reply {
	out := make([][]reply, len(streams))
	var wg sync.WaitGroup
	for i, calls := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, closeIdle := oneConn()
			defer closeIdle()
			for _, c := range calls {
				due := t0.Add(c.Due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
					}
				}
				rp := reply{Call: c, Due: due}
				fetch(ctx, client, http.MethodPost, base+c.Path, c.Body, &rp)
				if done != nil {
					done(rp)
				}
				out[i] = append(out[i], rp)
			}
		}()
	}
	wg.Wait()
	return out
}

// followMisses reads, on one connection and in submission order, the
// stream of every campaign submitted through POST /v1/campaigns, whose
// 202 answers arrive on submits. Submission holds no connection, so jobs
// wait in the daemon's queue while their streams are read one after the
// other; with one runner a job cannot start before the previous stream
// ends, so each stream is attached before its first row. A reply keeps
// the submission's due, sent and header times and takes the stream's
// first-line and done times, status and body; a refused submission is
// returned as it was answered.
func followMisses(ctx context.Context, base string, submits <-chan reply) []reply {
	client, closeIdle := oneConn()
	defer closeIdle()
	var out []reply
	var prevDone time.Time
	for rp := range submits {
		if rp.Err != nil || rp.Status == http.StatusServiceUnavailable {
			out = append(out, rp)
			continue
		}
		var st struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(rp.Body, &st); rp.Status != http.StatusAccepted || err != nil || st.Hash == "" {
			rp.Err = fmt.Errorf("submission answered %d (not a new job): %s", rp.Status, bytes.TrimSpace(rp.Body))
			out = append(out, rp)
			continue
		}
		rp.Start = rp.Sent
		if prevDone.After(rp.Start) {
			rp.Start = prevDone
		}
		var s reply
		fetch(ctx, client, http.MethodGet, base+"/v1/campaigns/"+st.Hash+"/stream", nil, &s)
		rp.FirstLine, rp.Done, rp.Status, rp.Body, rp.Err = s.FirstLine, s.Done, s.Status, s.Body, s.Err
		prevDone = rp.Done
		out = append(out, rp)
	}
	return out
}

// fetch performs one request and reads the whole response into r,
// noting when it was sent and when the headers, the first line and the
// last byte arrived.
func fetch(ctx context.Context, client *http.Client, method, url string, body []byte, r *reply) {
	r.Sent = time.Now()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		r.Err = err
		r.Done = time.Now()
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := client.Do(req)
	r.Headers = time.Now()
	if err != nil {
		r.Err = err
		r.Done = r.Headers
		return
	}
	defer resp.Body.Close()
	r.Status = resp.StatusCode
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var buf bytes.Buffer
	for {
		line, err := br.ReadSlice('\n')
		if len(line) > 0 && line[len(line)-1] == '\n' && r.FirstLine.IsZero() {
			r.FirstLine = time.Now()
		}
		buf.Write(line)
		if err == bufio.ErrBufferFull {
			continue
		}
		if err != nil {
			if err != io.EOF {
				r.Err = err
			}
			break
		}
	}
	r.Done = time.Now()
	r.Body = buf.Bytes()
}
