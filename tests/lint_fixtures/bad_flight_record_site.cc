// Fixture: exactly one `flight-record-site` violation (a second place
// that writes a QueryRecord). Reading the recorder, drawing an id, and a
// mention in a comment — SOI_OBS_FLIGHT_RECORD(record) — must NOT fire.
#include "obs/obs.h"

void RecordOnTheSide(const soi::obs::QueryRecord& record) {
  soi::obs::FlightRecorder::Snapshot flights =
      soi::obs::FlightRecorder::Global().Snap();
  (void)flights;
  soi::obs::QueryRecord copy = record;
  copy.query_id = SOI_OBS_NEXT_QUERY_ID();
  SOI_OBS_FLIGHT_RECORD(copy);
}
