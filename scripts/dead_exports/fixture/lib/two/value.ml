include Deadfix_one.Base
