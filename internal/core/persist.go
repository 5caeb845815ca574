package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"frappe/internal/svm"
)

// persistedClassifier is the gob wire form of a trained classifier. The
// Compiled field is optional — gob omits it when nil and ignores it when an
// older reader decodes a newer payload, so compiled artifacts ride the
// existing registry format without a version bump.
//
// Gob randomises map order, so the extractor's maps cross the wire as
// sorted entry slices: Save is byte-stable, which is what lets a file's
// checksum identify the model. The slices keep the maps' field names, so an
// older map-form payload fails to decode with a type error rather than
// decoding into empty maps.
type persistedClassifier struct {
	Features            []Feature
	MaliciousNameCounts []nameCount
	ContributedIDs      []string
	Imputed             []imputedValue
	Scaler              *svm.Scaler
	Model               *svm.Model
	Compiled            *svm.CompiledModel
}

type nameCount struct {
	Name  string
	Count int
}

type imputedValue struct {
	Feature Feature
	Value   float64
}

func encodeClassifier(w io.Writer, c *Classifier) error {
	e := &c.extractor
	p := persistedClassifier{
		Features: e.Features,
		Scaler:   c.scaler,
		Model:    c.model,
		Compiled: c.compiled,
	}
	for name, n := range e.MaliciousNameCounts {
		p.MaliciousNameCounts = append(p.MaliciousNameCounts, nameCount{name, n})
	}
	sort.Slice(p.MaliciousNameCounts, func(i, j int) bool {
		return p.MaliciousNameCounts[i].Name < p.MaliciousNameCounts[j].Name
	})
	for id, ok := range e.ContributedIDs {
		if ok {
			p.ContributedIDs = append(p.ContributedIDs, id)
		}
	}
	sort.Strings(p.ContributedIDs)
	for f, v := range e.Imputed {
		p.Imputed = append(p.Imputed, imputedValue{f, v})
	}
	sort.Slice(p.Imputed, func(i, j int) bool { return p.Imputed[i].Feature < p.Imputed[j].Feature })
	if err := gob.NewEncoder(w).Encode(&p); err != nil {
		return fmt.Errorf("core: encoding classifier: %w", err)
	}
	return nil
}

func decodeClassifier(r io.Reader) (*Classifier, error) {
	var p persistedClassifier
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: decoding classifier: %w", err)
	}
	if p.Model == nil || p.Scaler == nil || len(p.Features) == 0 {
		return nil, fmt.Errorf("core: decoded classifier is incomplete")
	}
	if p.Compiled != nil {
		if err := p.Compiled.Validate(); err != nil {
			return nil, fmt.Errorf("core: decoded compiled artifact: %w", err)
		}
		if p.Compiled.InputDim != len(p.Features) {
			return nil, fmt.Errorf("core: compiled artifact dimension %d does not match %d features",
				p.Compiled.InputDim, len(p.Features))
		}
	}
	e := Extractor{
		Features:            p.Features,
		MaliciousNameCounts: make(map[string]int, len(p.MaliciousNameCounts)),
		ContributedIDs:      make(map[string]bool, len(p.ContributedIDs)),
		Imputed:             make(map[Feature]float64, len(p.Imputed)),
	}
	for _, nc := range p.MaliciousNameCounts {
		e.MaliciousNameCounts[nc.Name] = nc.Count
	}
	for _, id := range p.ContributedIDs {
		e.ContributedIDs[id] = true
	}
	for _, iv := range p.Imputed {
		e.Imputed[iv.Feature] = iv.Value
	}
	return &Classifier{extractor: e, scaler: p.Scaler, model: p.Model, compiled: p.Compiled}, nil
}
