package experiment

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonResult mirrors Result with explicit field tags: the JSON form is a
// contract consumed by external tooling (plotting scripts, CI
// comparisons), so field names are pinned independently of the Go names.
type jsonResult struct {
	ID     string       `json:"id"`
	Title  string       `json:"title"`
	XLabel string       `json:"xLabel"`
	YLabel string       `json:"yLabel"`
	Series []jsonSeries `json:"series"`
	Notes  []string     `json:"notes,omitempty"`
}

type jsonSeries struct {
	Name      string      `json:"name"`
	Reference bool        `json:"reference,omitempty"`
	Points    []jsonPoint `json:"points"`
}

type jsonPoint struct {
	X      float64 `json:"x"`
	Mean   float64 `json:"mean"`
	Std    float64 `json:"std"`
	Trials int     `json:"trials"`
}

// WriteJSON writes the result as indented JSON.
func (r *Result) WriteJSON(w io.Writer) error {
	out := jsonResult{
		ID:     r.ID,
		Title:  r.Title,
		XLabel: r.XLabel,
		YLabel: r.YLabel,
		Notes:  r.Notes,
	}
	for _, s := range r.Series {
		js := jsonSeries{Name: s.Name, Reference: s.Reference, Points: []jsonPoint{}}
		for _, p := range s.Points {
			js.Points = append(js.Points, jsonPoint{X: p.X, Mean: p.Mean, Std: p.Std, Trials: p.Trials})
		}
		out.Series = append(out.Series, js)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return fmt.Errorf("encode result json: %w", err)
	}
	return nil
}

// ReadAllJSON parses every result in a stream of WriteJSON documents,
// such as the output of misbench -exp all -format json.
func ReadAllJSON(r io.Reader) ([]*Result, error) {
	dec := json.NewDecoder(r)
	var out []*Result
	for dec.More() {
		res, err := decodeResult(dec)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("decode result json: no result")
	}
	return out, nil
}

func decodeResult(dec *json.Decoder) (*Result, error) {
	var in jsonResult
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("decode result json: %w", err)
	}
	out := &Result{
		ID:     in.ID,
		Title:  in.Title,
		XLabel: in.XLabel,
		YLabel: in.YLabel,
		Notes:  in.Notes,
	}
	for _, s := range in.Series {
		rs := Series{Name: s.Name, Reference: s.Reference}
		for _, p := range s.Points {
			rs.Points = append(rs.Points, Point{X: p.X, Mean: p.Mean, Std: p.Std, Trials: p.Trials})
		}
		out.Series = append(out.Series, rs)
	}
	return out, nil
}
