#ifndef SOSIM_TESTS_MUTATE_LINES_H
#define SOSIM_TESTS_MUTATE_LINES_H

/**
 * @file
 * The seeded line mutator shared by the parser fuzz tests (trace and
 * assignment CSV, fault-plan and what-if specs).
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace sosim::fuzz {

/**
 * One seeded mutation of a line-oriented input: one to three edits, each
 * a bit flip, a truncation, a duplicated or dropped line, one of
 * `digit_edits` inserted at a digit, or the format's own `format_edit`
 * of the picked line.  Returns the lines joined with newlines.
 */
inline std::string
mutateLines(
    std::vector<std::string> lines,
    const std::function<std::size_t(std::size_t)> &pick,
    const std::vector<std::string> &digit_edits,
    const std::function<void(std::vector<std::string> &, std::string &)>
        &format_edit)
{
    for (std::size_t m = 1 + pick(3); m > 0; --m) {
        std::string &line = lines[pick(lines.size())];
        switch (pick(6)) {
          case 0: // Flip one bit of one byte.
            if (!line.empty())
                line[pick(line.size())] ^= static_cast<char>(1U << pick(8));
            break;
          case 1: // Truncate.
            line.resize(pick(line.size() + 1));
            break;
          case 2: // Duplicate a line.
            lines.insert(lines.begin() + pick(lines.size()),
                         std::string(line));
            break;
          case 3: // Drop a line.
            if (lines.size() > 1)
                lines.erase(lines.begin() + pick(lines.size()));
            break;
          case 4: { // A sign, point, exponent or junk at a digit.
            const std::size_t at =
                line.find_first_of("0123456789", pick(line.size() + 1));
            if (at != std::string::npos)
                line.insert(at, digit_edits[pick(digit_edits.size())]);
            break;
          }
          default:
            format_edit(lines, line);
        }
    }
    std::string text;
    for (const std::string &line : lines)
        text += line + "\n";
    return text;
}

} // namespace sosim::fuzz

#endif // SOSIM_TESTS_MUTATE_LINES_H
