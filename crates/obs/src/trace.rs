//! Slot-clock tracing: structured event records stamped with logical time.
//!
//! A [`TraceEvent`] carries the four-component slot clock (slot, round,
//! epoch, probe ordinal) plus a flat list of `(&'static str, u64)` fields —
//! no wall-clock timestamps and no owned strings, so emission costs one
//! `Vec` copy when a sink is installed and nothing otherwise. Events live
//! in a bounded keep-first ring (see `ObsState` in the crate root): the
//! retained prefix of a long run is deterministic no matter when the run
//! stops.
//!
//! `trace_to_jsonl` renders events one JSON object per line, fields in
//! emission order, suitable for byte-diffing two same-seed runs in CI.

use crate::registry::escape_json;

/// One structured trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emission ordinal within the session (0-based, counts drops too).
    pub(crate) seq: u64,
    /// Event name (dot-separated, e.g. `greedy.link`).
    pub name: &'static str,
    /// Slot-clock stamp: schedule slot.
    pub slot: u64,
    /// Slot-clock stamp: distributed-protocol round.
    pub round: u64,
    /// Slot-clock stamp: resilience epoch.
    pub(crate) epoch: u64,
    /// Slot-clock stamp: feasibility-probe ordinal.
    pub(crate) probe: u64,
    /// Event payload, in emission order.
    pub(crate) fields: Vec<(&'static str, u64)>,
}

impl TraceEvent {
    /// Value of a named payload field, if present.
    pub fn field(&self, name: &str) -> Option<u64> {
        self.fields
            .iter()
            .find(|(key, _)| *key == name)
            .map(|&(_, value)| value)
    }

    /// This event as one JSON object (no trailing newline).
    pub(crate) fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"seq\":{},\"name\":\"{}\",\"slot\":{},\"round\":{},\"epoch\":{},\"probe\":{}",
            self.seq,
            escape_json(self.name),
            self.slot,
            self.round,
            self.epoch,
            self.probe
        );
        out.push_str(",\"fields\":{");
        for (i, (key, value)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", escape_json(key), value));
        }
        out.push_str("}}");
        out
    }
}

/// Renders events as JSONL: one [`TraceEvent::to_json`] object per line,
/// newline-terminated. Byte-identical for equal event slices.
pub(crate) fn trace_to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_rendering_is_stable() {
        let events = vec![
            TraceEvent {
                seq: 0,
                name: "probe.done",
                slot: 3,
                round: 1,
                epoch: 0,
                probe: 42,
                fields: vec![("ok", 1), ("depth", 5)],
            },
            TraceEvent {
                seq: 1,
                name: "greedy.link",
                slot: 3,
                round: 1,
                epoch: 0,
                probe: 42,
                fields: vec![],
            },
        ];
        let jsonl = trace_to_jsonl(&events);
        assert_eq!(
            jsonl,
            "{\"seq\":0,\"name\":\"probe.done\",\"slot\":3,\"round\":1,\"epoch\":0,\
             \"probe\":42,\"fields\":{\"ok\":1,\"depth\":5}}\n\
             {\"seq\":1,\"name\":\"greedy.link\",\"slot\":3,\"round\":1,\"epoch\":0,\
             \"probe\":42,\"fields\":{}}\n"
        );
        assert_eq!(jsonl, trace_to_jsonl(&events));
        assert_eq!(events[0].field("depth"), Some(5));
        assert_eq!(events[0].field("missing"), None);
    }
}
