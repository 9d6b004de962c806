//! Artifact round trip: render a pass's results in the figure-artifact
//! envelope and parse them back, as `Artifact::write` does before writing.

use crate::layers::call;
use crate::record::PassRecord;
use noc_flow::json::{Artifact, ParsedArtifact, ToJson};

/// Renders `data` under `figure`, parses the text back and checks that the
/// parsed document renders to the same bytes.  One operation.
pub fn round_trip<T: ToJson + ?Sized>(figure: &str, data: &T, rec: &mut PassRecord) {
    rec.op(|rec| {
        let text = call("json.render", || Artifact::new(figure, data).render());
        rec.json_bytes = text.len() as u64;
        let same = call("json.parse", || match ParsedArtifact::parse(&text) {
            Ok(parsed) => Ok(Artifact::new(&parsed.figure, &parsed.data).render() == text),
            Err(e) => Err(e.to_string()),
        });
        match same {
            Ok(same) => rec.check(same, || {
                format!("{figure}: artifact does not parse back to what was rendered")
            }),
            Err(e) => rec.check(false, || format!("{figure}: artifact does not parse: {e}")),
        }
    });
}
